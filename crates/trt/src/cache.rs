//! A process-wide engine cache.
//!
//! Building an engine — fusion, precision assignment, memory planning —
//! is by far the most expensive step of a sweep cell, and the paper's
//! grids re-use the same `(device, model, precision, batch)` engine for
//! every process-count point. [`EngineCache`] memoises built engines
//! behind an [`Arc`], so each distinct engine is compiled exactly once
//! per process no matter how many sweep cells, figure harnesses or
//! worker threads request it.
//!
//! Keys are content fingerprints (FNV-1a over the serialised
//! [`DeviceSpec`] / [`ModelGraph`]), not names, so mutated ablation specs
//! created via `Platform::from_spec` can never alias a preset's cache
//! entry. Each graph is fingerprinted once per process: the value is
//! stored on the graph ([`ModelGraph::fingerprint`]) and shared by its
//! clones, so a warm hit costs the device fingerprint and a hash-map
//! lookup. The device is re-fingerprinted on every lookup, because
//! [`DeviceSpec`]'s fields are public and ablations mutate clones of it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use jetsim_des::fnv1a;
use jetsim_device::DeviceSpec;
use jetsim_dnn::{ModelGraph, Precision};

use crate::builder::EngineBuilder;
use crate::engine::Engine;
use crate::error::BuildError;

/// Identifies one distinct engine build: device and model by content
/// fingerprint, plus the requested precision and batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineKey {
    /// Fingerprint of the target [`DeviceSpec`].
    pub device_fp: u64,
    /// Fingerprint of the source [`ModelGraph`]
    /// ([`ModelGraph::fingerprint`]).
    pub model_fp: u64,
    /// Requested precision.
    pub precision: Precision,
    /// Fixed batch size.
    pub batch: u32,
}

impl EngineKey {
    /// Computes the key for a prospective default-options build.
    pub fn of(device: &DeviceSpec, model: &ModelGraph, precision: Precision, batch: u32) -> Self {
        EngineKey {
            device_fp: fingerprint_device(device),
            model_fp: model.fingerprint(),
            precision,
            batch,
        }
    }
}

/// Hit/miss counters, for the sweep benchmarks and cache diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compile an engine.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe memo table from [`EngineKey`] to built engines.
///
/// Reads take a shared `std::sync::RwLock` read lock, so concurrent sweep workers
/// hitting a warm cache never contend; a miss takes the write lock for
/// the duration of the build, guaranteeing each engine is compiled at
/// most once even under racing workers.
///
/// # Examples
///
/// ```
/// use jetsim_device::presets;
/// use jetsim_dnn::{zoo, Precision};
/// use jetsim_trt::EngineCache;
///
/// let cache = EngineCache::new();
/// let device = presets::orin_nano();
/// let model = zoo::resnet50();
/// let a = cache.get_or_build(&device, &model, Precision::Fp16, 4)?;
/// let b = cache.get_or_build(&device, &model, Precision::Fp16, 4)?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // second call is a cache hit
/// assert_eq!(cache.stats().misses, 1);
/// # Ok::<(), jetsim_trt::BuildError>(())
/// ```
#[derive(Debug, Default)]
pub struct EngineCache {
    map: RwLock<HashMap<EngineKey, Arc<Engine>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EngineCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        EngineCache::default()
    }

    /// The process-wide shared cache used by `Platform::build_engine` and
    /// the sweep/figure harnesses.
    pub fn global() -> &'static EngineCache {
        static GLOBAL: OnceLock<EngineCache> = OnceLock::new();
        GLOBAL.get_or_init(EngineCache::new)
    }

    /// Returns the engine for `(device, model, precision, batch)`,
    /// compiling it with default builder options on first request.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the underlying builder; failed
    /// builds are not cached.
    pub fn get_or_build(
        &self,
        device: &DeviceSpec,
        model: &ModelGraph,
        precision: Precision,
        batch: u32,
    ) -> Result<Arc<Engine>, BuildError> {
        let key = EngineKey::of(device, model, precision, batch);
        if let Some(engine) = self
            .map
            .read()
            .expect("engine cache lock poisoned")
            .get(&key)
            .cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(engine);
        }
        // Take the write lock for the build itself: racing workers block
        // here instead of compiling the same engine twice.
        let mut map = self.map.write().expect("engine cache lock poisoned");
        if let Some(engine) = map.get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(engine);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::new(
            EngineBuilder::new(device)
                .precision(precision)
                .batch(batch)
                .build(model)?,
        );
        map.insert(key, Arc::clone(&engine));
        Ok(engine)
    }

    /// Number of distinct engines currently cached.
    pub fn len(&self) -> usize {
        self.map.read().expect("engine cache lock poisoned").len()
    }

    /// Returns `true` if the cache holds no engines.
    pub fn is_empty(&self) -> bool {
        self.map
            .read()
            .expect("engine cache lock poisoned")
            .is_empty()
    }

    /// Drops every cached engine (counters are kept).
    pub fn clear(&self) {
        self.map
            .write()
            .expect("engine cache lock poisoned")
            .clear();
    }

    /// Hit/miss counters since process start (for the global cache) or
    /// construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Content fingerprint of a device specification: FNV-1a over its JSON.
pub fn fingerprint_device(device: &DeviceSpec) -> u64 {
    let bytes = serde_json::to_vec(device).expect("DeviceSpec serialises");
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetsim_device::presets;
    use jetsim_dnn::zoo;

    #[test]
    fn second_request_is_a_pointer_equal_hit() {
        let cache = EngineCache::new();
        let device = presets::orin_nano();
        let model = zoo::resnet50();
        let a = cache
            .get_or_build(&device, &model, Precision::Int8, 8)
            .unwrap();
        let b = cache
            .get_or_build(&device, &model, Precision::Int8, 8)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_parameters_are_distinct_entries() {
        let cache = EngineCache::new();
        let device = presets::orin_nano();
        let model = zoo::resnet50();
        cache
            .get_or_build(&device, &model, Precision::Int8, 1)
            .unwrap();
        cache
            .get_or_build(&device, &model, Precision::Fp16, 1)
            .unwrap();
        cache
            .get_or_build(&device, &model, Precision::Int8, 2)
            .unwrap();
        cache
            .get_or_build(&device, &zoo::yolov8n(), Precision::Int8, 1)
            .unwrap();
        cache
            .get_or_build(&presets::jetson_nano(), &model, Precision::Int8, 1)
            .unwrap();
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn mutated_spec_does_not_alias_preset() {
        let model = zoo::resnet50();
        let stock = presets::orin_nano();
        let mut tweaked = presets::orin_nano();
        tweaked.gpu.sm_count *= 2;
        let key_stock = EngineKey::of(&stock, &model, Precision::Fp16, 1);
        let key_tweaked = EngineKey::of(&tweaked, &model, Precision::Fp16, 1);
        assert_ne!(key_stock, key_tweaked);
        // A spec mutated after the preset's engine is cached still
        // misses: the device is fingerprinted on every lookup.
        let cache = EngineCache::new();
        let stock_engine = cache
            .get_or_build(&stock, &model, Precision::Fp16, 1)
            .unwrap();
        let tweaked_engine = cache
            .get_or_build(&tweaked, &model, Precision::Fp16, 1)
            .unwrap();
        assert!(!Arc::ptr_eq(&stock_engine, &tweaked_engine));
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    /// `fingerprint_model` / `fingerprint_device` of every zoo model and
    /// preset as the serialise-on-every-lookup path computed them. The
    /// stored fingerprints must key every engine exactly as before.
    const PINNED_MODELS: [(&str, u64); 7] = [
        ("resnet50", 0x7e51_2efe_2f4c_67b2),
        ("fcn_resnet50", 0xbf69_8abc_cbd4_22f1),
        ("yolov8n", 0x8fe0_73a0_e994_f3d7),
        ("resnet18", 0x72c9_8849_a6d4_cf86),
        ("resnet34", 0x3a04_60b2_9882_ea38),
        ("resnet101", 0x8f2d_1e93_9c7e_5f9e),
        ("mobilenet_v2", 0x5b49_0cba_b0d5_927f),
    ];
    const PINNED_DEVICES: [(&str, u64); 3] = [
        ("Jetson Orin Nano", 0x7c98_6c27_e1f0_f777),
        ("Jetson Nano", 0x5d6a_73c2_741b_8082),
        ("Cloud A40", 0x019a_8c0b_6c5a_fd44),
    ];

    #[test]
    fn keys_match_the_pinned_fingerprints() {
        let devices = [
            presets::orin_nano(),
            presets::jetson_nano(),
            presets::cloud_a40(),
        ];
        let models = zoo::extended();
        assert_eq!(models.len(), PINNED_MODELS.len());
        for (device, &(name, device_fp)) in devices.iter().zip(&PINNED_DEVICES) {
            assert_eq!(device.name, name);
            for (model, &(name, model_fp)) in models.iter().zip(&PINNED_MODELS) {
                assert_eq!(model.name(), name);
                let key = EngineKey::of(device, model, Precision::Int8, 2);
                assert_eq!(key.device_fp, device_fp, "{}", device.name);
                assert_eq!(key.model_fp, model_fp, "{name}");
                // The stored value answers the second lookup too.
                assert_eq!(EngineKey::of(device, model, Precision::Int8, 2), key);
            }
        }
    }

    #[test]
    fn add_after_fingerprinting_gives_a_new_key() {
        let device = presets::orin_nano();
        let mut model = zoo::resnet18();
        let before = EngineKey::of(&device, &model, Precision::Fp16, 1);
        let original = model.clone();
        let (last, _) = model.iter().last().unwrap();
        model.add(
            "extra_relu",
            jetsim_dnn::LayerKind::Act(jetsim_dnn::Activation::Relu),
            &[last],
        );
        let after = EngineKey::of(&device, &model, Precision::Fp16, 1);
        assert_ne!(after.model_fp, before.model_fp);
        // The clone taken before the `add` keeps the old key.
        assert_eq!(
            EngineKey::of(&device, &original, Precision::Fp16, 1),
            before
        );
        // The stored value matches a fresh serialisation.
        let bytes = serde_json::to_vec(&model).unwrap();
        assert_eq!(after.model_fp, fnv1a(&bytes));
    }

    #[test]
    fn extending_a_clone_leaves_the_original_key() {
        let device = presets::jetson_nano();
        let model = zoo::mobilenet_v2();
        let key = EngineKey::of(&device, &model, Precision::Fp32, 4);
        let mut extended = model.clone();
        extended.add(
            "tail_relu",
            jetsim_dnn::LayerKind::Act(jetsim_dnn::Activation::Relu),
            &[],
        );
        assert_ne!(
            EngineKey::of(&device, &extended, Precision::Fp32, 4),
            key,
            "the clone was extended"
        );
        assert_eq!(EngineKey::of(&device, &model, Precision::Fp32, 4), key);
        assert_eq!(key.model_fp, PINNED_MODELS[6].1);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = EngineCache::new();
        let device = presets::orin_nano();
        let model = zoo::resnet50();
        let err = cache.get_or_build(&device, &model, Precision::Fp16, 0);
        assert!(err.is_err());
        assert!(cache.is_empty());
        // A subsequent valid request still works.
        cache
            .get_or_build(&device, &model, Precision::Fp16, 1)
            .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = EngineCache::new();
        let device = presets::orin_nano();
        let model = zoo::yolov8n();
        cache
            .get_or_build(&device, &model, Precision::Fp16, 1)
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = EngineCache::new();
        let device = presets::orin_nano();
        let model = zoo::resnet50();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache
                        .get_or_build(&device, &model, Precision::Fp16, 4)
                        .unwrap();
                });
            }
        });
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprints_are_stable() {
        let d1 = fingerprint_device(&presets::orin_nano());
        let d2 = fingerprint_device(&presets::orin_nano());
        assert_eq!(d1, d2);
        assert_ne!(d1, fingerprint_device(&presets::jetson_nano()));
        let m1 = zoo::resnet50().fingerprint();
        assert_eq!(m1, zoo::resnet50().fingerprint());
        assert_ne!(m1, zoo::yolov8n().fingerprint());
    }
}

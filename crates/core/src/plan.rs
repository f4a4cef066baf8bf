//! Engine plan files: serialise built engines like TensorRT's
//! `trtexec --saveEngine` / `--loadEngine`.
//!
//! Building real TensorRT engines takes minutes, so the paper's workflow
//! (and `trtexec`) caches them as plan files. The simulator's builds are
//! instant, but plan files remain useful: they pin the exact fused-kernel
//! sequence an experiment ran (for archival alongside `results/`) and let
//! external tools inspect the kernel mix.

use std::fs;
use std::io;
use std::path::Path;

use jetsim_dnn::ModelGraph;
use jetsim_trt::Engine;

/// Writes `engine` as a JSON plan file, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
///
/// # Examples
///
/// ```
/// use jetsim::{plan, Platform};
/// use jetsim_dnn::{zoo, Precision};
///
/// let engine = Platform::orin_nano().build_engine(&zoo::resnet50(), Precision::Int8, 4)?;
/// let path = std::env::temp_dir().join("resnet50_int8_b4.plan.json");
/// plan::save_engine(&path, &engine)?;
/// let restored = plan::load_engine(&path)?;
/// assert_eq!(restored.name(), engine.name());
/// assert_eq!(restored.kernel_count(), engine.kernel_count());
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn save_engine<P: AsRef<Path>>(path: P, engine: &Engine) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(engine).map_err(io::Error::other)?;
    fs::write(path, json)
}

/// Reads an engine back from a JSON plan file.
///
/// # Errors
///
/// Propagates filesystem errors; malformed plan files surface as
/// `InvalidData`.
pub fn load_engine<P: AsRef<Path>>(path: P) -> io::Result<Engine> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes a model graph as a JSON model file, creating parent
/// directories. Together with [`load_model`] this lets users define
/// custom workloads without writing Rust (the CLI accepts
/// `--model=<path>.json`).
///
/// # Errors
///
/// Propagates filesystem errors.
///
/// # Examples
///
/// ```
/// use jetsim::plan;
/// use jetsim_dnn::zoo;
///
/// let path = std::env::temp_dir().join("resnet18.model.json");
/// plan::save_model(&path, &zoo::resnet18())?;
/// let restored = plan::load_model(&path)?;
/// assert_eq!(restored.stats().params, zoo::resnet18().stats().params);
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn save_model<P: AsRef<Path>>(path: P, model: &ModelGraph) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(model).map_err(io::Error::other)?;
    fs::write(path, json)
}

/// Reads a model graph from a JSON model file and validates it.
///
/// # Errors
///
/// Propagates filesystem errors; malformed files and structurally
/// invalid graphs surface as `InvalidData`.
pub fn load_model<P: AsRef<Path>>(path: P) -> io::Result<ModelGraph> {
    let json = fs::read_to_string(path)?;
    let model: ModelGraph =
        serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    model
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use jetsim_dnn::{zoo, Precision};

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jetsim_plan_{name}_{}.json", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let engine = Platform::jetson_nano()
            .build_engine(&zoo::yolov8n(), Precision::Fp16, 8)
            .unwrap();
        let path = temp("yolo");
        save_engine(&path, &engine).unwrap();
        let restored = load_engine(&path).unwrap();
        assert_eq!(restored.name(), engine.name());
        assert_eq!(restored.batch(), engine.batch());
        assert_eq!(restored.kernel_count(), engine.kernel_count());
        assert_eq!(restored.weight_bytes(), engine.weight_bytes());
        assert_eq!(restored.flops_per_ec(), engine.flops_per_ec());
        assert_eq!(restored.gpu_memory_bytes(0), engine.gpu_memory_bytes(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restored_engines_simulate_identically() {
        use jetsim_des::SimDuration;
        use jetsim_sim::{ProcessConfig, SimConfig, Simulation};
        let platform = Platform::orin_nano();
        let engine = platform
            .build_engine(&zoo::resnet50(), Precision::Int8, 1)
            .unwrap();
        let path = temp("resnet");
        save_engine(&path, &engine).unwrap();
        let restored = std::sync::Arc::new(load_engine(&path).unwrap());
        let run = |e| {
            let config = SimConfig::builder(platform.device().clone())
                .add_process(ProcessConfig::new("p0", e, 0))
                .warmup(SimDuration::from_millis(100))
                .measure(SimDuration::from_millis(400))
                .build()
                .unwrap();
            Simulation::new(config).unwrap().run().total_throughput()
        };
        assert_eq!(run(engine), run(restored));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_round_trip_preserves_structure() {
        let model = zoo::yolov8n();
        let path = temp("model");
        save_model(&path, &model).unwrap();
        let restored = load_model(&path).unwrap();
        assert_eq!(restored.name(), model.name());
        assert_eq!(restored.len(), model.len());
        assert_eq!(restored.stats(), model.stats());
        // The restored graph compiles to the same engine.
        let platform = Platform::orin_nano();
        let a = platform.build_engine(&model, Precision::Int8, 2).unwrap();
        let b = platform
            .build_engine(&restored, Precision::Int8, 2)
            .unwrap();
        assert_eq!(a.kernels(), b.kernels());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_model_file_rejected() {
        let path = temp("badmodel");
        std::fs::write(&path, "{}").unwrap();
        assert_eq!(
            load_model(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_plan_is_invalid_data() {
        let path = temp("bad");
        std::fs::write(&path, "not a plan").unwrap();
        let err = load_engine(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_plan_is_not_found() {
        let err = load_engine("/nonexistent/dir/x.plan.json").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}

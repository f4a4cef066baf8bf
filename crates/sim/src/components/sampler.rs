//! The `jetson-stats`-style periodic sampler.

use jetsim_des::SimTime;

use crate::trace::PowerSample;

use super::governor::Governor;
use super::gpu::GpuEngine;
use super::{Ctx, Event};

/// Events consumed by [`Sampler`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum SamplerEvent {
    /// Periodic sample.
    Tick,
}

/// Peers a sampling tick reads: the GPU's accounting window and the
/// governor's temperature estimate.
pub(crate) struct SamplerDeps<'d> {
    /// The GPU engine (window drained, frequency read).
    pub gpu: &'d mut GpuEngine,
    /// The governor (temperature read).
    pub governor: &'d Governor,
}

/// The sampling component: owns the recorded power samples.
pub(crate) struct Sampler {
    /// Periodic power samples (measured window only).
    pub(crate) power_samples: Vec<PowerSample>,
}

impl Sampler {
    /// Handles one sampling tick at `now`, reading the peers in `deps`.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        ev: SamplerEvent,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: SamplerDeps<'_>,
    ) {
        match ev {
            SamplerEvent::Tick => self.on_sample_tick(now, ctx, deps),
        }
    }

    /// Creates an empty sampler.
    pub(crate) fn new() -> Self {
        Sampler {
            power_samples: Vec::new(),
        }
    }

    /// Periodic `jetson-stats` sample.
    fn on_sample_tick(&mut self, now: SimTime, ctx: &mut Ctx<'_>, deps: SamplerDeps<'_>) {
        let SamplerDeps { gpu, governor } = deps;
        gpu.accrue_gpu(now);
        let device = &ctx.config.device;
        let period = ctx.config.sample_period;
        let (cpu_cores, load) = gpu.drain_sample_window(period, device);
        let ratio = device.gpu.freq.ratio(gpu.freq_step);
        let watts = device.power.total_watts(cpu_cores, load, ratio);
        if now > ctx.warmup_end {
            self.power_samples.push(PowerSample {
                time: now,
                watts,
                gpu_utilization: load.busy,
                gpu_freq_mhz: device.gpu.freq.mhz(gpu.freq_step),
                gpu_memory_bytes: ctx.config.gpu_memory_bytes(),
                cpu_busy_cores: cpu_cores,
                temp_c: governor.temp_c,
            });
        }
        ctx.queue
            .schedule_after(period, Event::Sampler(SamplerEvent::Tick));
    }
}

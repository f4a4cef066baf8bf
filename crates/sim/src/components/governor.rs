//! The DVFS governor: thermal integration, power-budget defense and
//! ladder walking — the paper's §6.1.2 non-linear power behaviour.

use jetsim_des::SimTime;

use super::gpu::GpuEngine;
use super::{Ctx, Event};

/// Events consumed by [`Governor`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum GovernorEvent {
    /// Periodic governor evaluation.
    Tick,
}

/// The DVFS governor component: owns the junction-temperature state and
/// any injected throttle lock, and writes the frequency step the GPU
/// dispatches at.
pub(crate) struct Governor {
    /// Estimated junction temperature, °C.
    pub(crate) temp_c: f64,
    /// Active throttle lock: `(until, pinned step)`. Written by the
    /// memory guard when a [`crate::ThrottleLock`] fault fires.
    pub(crate) throttle_lock: Option<(SimTime, usize)>,
}

impl Governor {
    /// Handles one DVFS tick at `now`, moving `gpu` along its ladder.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        ev: GovernorEvent,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        gpu: &mut GpuEngine,
    ) {
        match ev {
            GovernorEvent::Tick => self.on_dvfs_tick(now, ctx, gpu),
        }
    }

    /// Creates the governor at ambient temperature with no lock.
    pub(crate) fn new(ambient_c: f64) -> Self {
        Governor {
            temp_c: ambient_c,
            throttle_lock: None,
        }
    }

    /// Periodic DVFS governor: integrate the thermal model, estimate
    /// draw, walk the ladder. The junction temperature throttles
    /// unconditionally — the "thermal limit" half of the paper's §6.1.2.
    fn on_dvfs_tick(&mut self, now: SimTime, ctx: &mut Ctx<'_>, gpu: &mut GpuEngine) {
        gpu.accrue_gpu(now);
        let device = &ctx.config.device;
        let interval = device.dvfs.interval;
        let (cpu_cores, load) = gpu.drain_dvfs_window(interval, device);
        let ladder = &device.gpu.freq;
        let cur = gpu.freq_step;
        let watts_now = device.power.total_watts(cpu_cores, load, ladder.ratio(cur));
        self.temp_c = device
            .thermal
            .step(self.temp_c, watts_now, interval.as_secs_f64());
        // An injected throttle lock (`crate::ThrottleLock`) overrides the
        // governor: the clock stays pinned until the lock's window ends,
        // whatever the power budget says. Thermal state still integrates.
        let locked = match self.throttle_lock {
            Some((until, step)) if now <= until => {
                gpu.freq_step = step;
                true
            }
            _ => false,
        };
        if !locked && device.dvfs.enabled {
            let watts_at = |step: usize| {
                device
                    .power
                    .total_watts(cpu_cores, load, ladder.ratio(step))
            };
            let budget = device.power.budget_w;
            let over_limit = device.thermal.throttles(self.temp_c) || watts_at(cur) > budget;
            gpu.freq_step = if over_limit {
                ladder.step_down(cur)
            } else {
                let up = ladder.step_up(cur);
                // Predictive up-step: only raise the clock if the draw at
                // the higher step would still respect the budget (with
                // hysteresis), otherwise the governor would oscillate.
                if up != cur
                    && watts_at(up) < budget * device.dvfs.up_hysteresis
                    && !device.thermal.throttles(self.temp_c)
                {
                    up
                } else {
                    cur
                }
            };
        }
        ctx.queue
            .schedule_after(interval, Event::Governor(GovernorEvent::Tick));
    }
}

//! The memory guard: unified-memory footprint accounting, the injected
//! fault timeline, and OOM-killer enforcement — §6.2.1's over-deployment
//! "reboot" as a simulated outcome.

use jetsim_des::{CalendarQueue, SimTime};

use crate::config::SimConfig;
use crate::faults::{FaultEvent, FaultKind, OomPolicy};

use super::governor::Governor;
use super::gpu::GpuEngine;
use super::ingress::Ingress;
use super::sched::CpuSched;
use super::{Ctx, Event};

/// Events consumed by [`MemoryGuard`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum MemoryEvent {
    /// An injected fault fires (index into the precomputed timeline).
    Fault {
        /// Index into the guard's fault timeline.
        index: u32,
    },
}

/// One entry of the precomputed fault timeline (derived from the
/// config's [`crate::FaultPlan`] at construction, so injection costs
/// nothing when the plan is empty and draws nothing from the run RNG).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    /// A background memory spike appears.
    SpikeStart { bytes: u64 },
    /// A background memory spike is released.
    SpikeEnd { bytes: u64 },
    /// The DVFS governor gets pinned to `step` until `until`.
    LockStart { until: SimTime, step: usize },
    /// A throttle lock may release (ignored while a longer lock holds).
    LockEnd,
}

/// Peers a fault may drive: the scheduler (evicting killed threads), the
/// GPU (frequency pinning), the governor (throttle-lock state) and the
/// ingress (a killed serve replica fails its in-flight requests and may
/// schedule a restart).
pub(crate) struct GuardDeps<'d> {
    /// The CPU scheduler (killed processes release their cores).
    pub sched: &'d mut CpuSched,
    /// The GPU engine (throttle locks pin its frequency step).
    pub gpu: &'d mut GpuEngine,
    /// The governor (owns the throttle-lock override state).
    pub governor: &'d mut Governor,
    /// The ingress (killed serve replicas fail over and recover).
    pub ingress: &'d mut Ingress,
}

/// The memory-guard component: owns footprint/spike accounting, the
/// fault timeline, and the recorded fault events.
pub(crate) struct MemoryGuard {
    /// Precomputed fault schedule, sorted by time (releases before
    /// arrivals at equal timestamps).
    timeline: Vec<(SimTime, FaultAction)>,
    /// Background spike bytes currently resident.
    spike_bytes: u64,
    /// Faults injected and their consequences, in event order.
    pub(crate) fault_events: Vec<FaultEvent>,
}

impl MemoryGuard {
    /// Handles one injected fault at `now`, driving the peers in `deps`.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        ev: MemoryEvent,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        deps: GuardDeps<'_>,
    ) {
        match ev {
            MemoryEvent::Fault { index } => self.on_fault(index as usize, now, ctx, deps),
        }
    }

    /// Flattens the config's fault plan into a timeline of point
    /// actions. Releases sort before arrivals at equal timestamps so a
    /// spike ending exactly when another starts never double-counts.
    pub(crate) fn new(config: &SimConfig) -> Self {
        let ladder_top = config.device.gpu.freq.top();
        let mut timeline: Vec<(SimTime, FaultAction)> = Vec::with_capacity(
            2 * (config.faults.memory_spikes.len() + config.faults.throttle_locks.len()),
        );
        for spike in &config.faults.memory_spikes {
            timeline.push((spike.at, FaultAction::SpikeStart { bytes: spike.bytes }));
            timeline.push((spike.end(), FaultAction::SpikeEnd { bytes: spike.bytes }));
        }
        for lock in &config.faults.throttle_locks {
            let step = lock.step.min(ladder_top);
            timeline.push((
                lock.at,
                FaultAction::LockStart {
                    until: lock.end(),
                    step,
                },
            ));
            timeline.push((lock.end(), FaultAction::LockEnd));
        }
        timeline.sort_by_key(|&(at, action)| {
            let release_first = match action {
                FaultAction::SpikeEnd { .. } | FaultAction::LockEnd => 0u8,
                FaultAction::SpikeStart { .. } | FaultAction::LockStart { .. } => 1,
            };
            (at.as_nanos(), release_first)
        });
        MemoryGuard {
            timeline,
            spike_bytes: 0,
            fault_events: Vec::new(),
        }
    }

    /// Schedules every timeline entry that falls within the run (no-op
    /// for an empty plan, so fault-free runs stay byte-identical to the
    /// pre-fault loop).
    pub(crate) fn schedule_timeline(&self, queue: &mut CalendarQueue<Event>, sim_end: SimTime) {
        // One deferred-sort batch instead of N bucket sorts: the timeline
        // is precomputed, so the whole fault plan goes in at once.
        queue.schedule_batch(
            self.timeline
                .iter()
                .enumerate()
                .filter_map(|(index, &(at, _))| {
                    (at <= sim_end).then_some((
                        at,
                        Event::Memory(MemoryEvent::Fault {
                            index: index as u32,
                        }),
                    ))
                }),
        );
    }

    /// Applies one scheduled fault action.
    fn on_fault(&mut self, index: usize, now: SimTime, ctx: &mut Ctx<'_>, deps: GuardDeps<'_>) {
        let GuardDeps {
            sched,
            gpu,
            governor,
            ingress,
        } = deps;
        let (_, action) = self.timeline[index];
        match action {
            FaultAction::SpikeStart { bytes } => {
                self.spike_bytes += bytes;
                self.fault_events.push(FaultEvent {
                    time: now,
                    kind: FaultKind::MemorySpikeStart { bytes },
                });
                self.enforce_memory(now, ctx, sched, gpu, ingress);
            }
            FaultAction::SpikeEnd { bytes } => {
                // Each end releases its own start's bytes, which are live
                // until then.
                debug_assert!(
                    bytes <= self.spike_bytes,
                    "memory spike release at {} ns frees {bytes} bytes, but only {} spike \
                     bytes are live",
                    now.as_nanos(),
                    self.spike_bytes
                );
                self.spike_bytes = self.spike_bytes.saturating_sub(bytes);
                self.fault_events.push(FaultEvent {
                    time: now,
                    kind: FaultKind::MemorySpikeEnd { bytes },
                });
            }
            FaultAction::LockStart { until, step } => {
                governor.throttle_lock = Some((until, step));
                gpu.freq_step = step;
                self.fault_events.push(FaultEvent {
                    time: now,
                    kind: FaultKind::ThrottleLockStart {
                        step,
                        mhz: ctx.config.device.gpu.freq.mhz(step),
                    },
                });
            }
            FaultAction::LockEnd => {
                // Only release when no longer-running lock superseded
                // this one (overlapping locks keep the latest window).
                if let Some((until, _)) = governor.throttle_lock {
                    if now >= until {
                        governor.throttle_lock = None;
                        self.fault_events.push(FaultEvent {
                            time: now,
                            kind: FaultKind::ThrottleLockEnd,
                        });
                    }
                }
            }
        }
    }

    /// Live unified-memory footprint of the alive processes, optionally
    /// excluding one (to compute how much its death would free). The
    /// same rule as [`SimConfig::total_footprint_bytes`]: killing one
    /// stream of a shared memory group frees only its per-context
    /// buffers (and its fallback engine) unless it was the group's last
    /// member.
    fn footprint_excluding(&self, ctx: &Ctx<'_>, excluded: Option<usize>) -> u64 {
        let host = ctx.config.device.memory.per_process_host_bytes;
        ctx.config
            .footprint_bytes(host, |pid| ctx.alive[pid] && Some(pid) != excluded)
    }

    /// Kills processes (largest memory freed first, ties to the lowest
    /// pid) until the live footprint plus background spikes fits in
    /// usable memory. No-op under [`OomPolicy::Strict`], where the
    /// pre-flight check already guaranteed fit.
    pub(crate) fn enforce_memory(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        sched: &mut CpuSched,
        gpu: &mut GpuEngine,
        ingress: &mut Ingress,
    ) {
        if ctx.config.faults.oom != OomPolicy::KillLargest {
            return;
        }
        loop {
            let current = self.footprint_excluding(ctx, None);
            if !ctx
                .config
                .device
                .memory
                .would_oom(current.saturating_add(self.spike_bytes))
            {
                break;
            }
            let mut victim: Option<(u64, usize)> = None;
            for pid in 0..ctx.procs.len() {
                if !ctx.alive[pid] {
                    continue;
                }
                let freed = current - self.footprint_excluding(ctx, Some(pid));
                if victim.is_none_or(|(best, _)| freed > best) {
                    victim = Some((freed, pid));
                }
            }
            let Some((freed, pid)) = victim else {
                break; // everyone is dead; the spike alone overcommits
            };
            self.kill_process(pid, freed, now, ctx, sched, gpu, ingress);
        }
    }

    /// Whether reviving `pid` (alive again on top of the current
    /// survivors and background spikes) would still fit in usable
    /// memory. Consulted by the ingress before a restarted replica
    /// rejoins its group — the board may have tightened since the kill.
    pub(crate) fn revival_fits(&self, ctx: &Ctx<'_>, pid: usize) -> bool {
        let memory = &ctx.config.device.memory;
        let total = ctx
            .config
            .footprint_bytes(memory.per_process_host_bytes, |p| ctx.alive[p] || p == pid);
        !memory.would_oom(total.saturating_add(self.spike_bytes))
    }

    /// Terminates `pid`: its queued kernels vanish, pending events for
    /// it become stale, and (in run-queue mode) its core is released.
    /// Its in-flight GPU kernel, if any, completes — the driver does not
    /// revoke work already submitted to the hardware.
    #[allow(clippy::too_many_arguments)]
    fn kill_process(
        &mut self,
        pid: usize,
        freed_bytes: u64,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        sched: &mut CpuSched,
        gpu: &mut GpuEngine,
        ingress: &mut Ingress,
    ) {
        ctx.alive[pid] = false;
        ctx.killed_at[pid] = Some(now);
        gpu.clear_ready(pid, ctx);
        if ctx.config.cpu_model == crate::config::CpuModel::RunQueue {
            sched.rq_evict(pid, now, ctx);
        }
        self.fault_events.push(FaultEvent {
            time: now,
            kind: FaultKind::ProcessKilled {
                pid,
                name: ctx.procs[pid].name.clone(),
                freed_bytes,
            },
        });
        // Serve replicas fail their in-flight requests and may recover;
        // no-op for closed-loop processes.
        ingress.on_replica_killed(pid, now, ctx);
    }
}

//! Typed simulation components.
//!
//! The simulator used to be one god-object: a 2,000-line `Runner` with a
//! single untyped event match. It is now six cohesive components, each
//! owning one subsystem's state and consuming its own typed event enum
//! through an inherent `handle` method, coordinated by a slim `Runner`
//! (in [`crate::simulation`]) that only routes events and owns the
//! `jetsim-des` queue:
//!
//! * [`sched::CpuSched`] — host-thread lifecycle: EC arrivals, launch
//!   bursts, the explicit run-queue quantum scheduler and the calibrated
//!   stochastic contention model (§7);
//! * [`gpu::GpuEngine`] — kernel dispatch, timeslice affinity, MPS
//!   packing, in-flight power/utilisation accrual, kernel-event tracing;
//! * [`governor::Governor`] — DVFS ladder walking, the thermal RC model,
//!   and injected throttle locks (§6.1.2);
//! * [`memory_guard::MemoryGuard`] — unified-memory footprint
//!   accounting, fault timeline, and OOM-killer enforcement (§6.2.1);
//! * [`sampler::Sampler`] — the periodic `jetson-stats`-style sample;
//! * [`ingress::Ingress`] — request arrivals, batching, admission and
//!   the serving resilience policies.
//!
//! Cross-component effects (the paper's actual findings are these
//! interactions) are expressed as explicit dependencies: each `handle`
//! takes exactly the peers its events may drive, so the coupling that
//! was implicit in the god-object is visible in the signatures. The
//! scheduler drives the GPU (launches enqueue kernels) and the GPU
//! drives the scheduler (completions wake host threads); the governor
//! drives the GPU's frequency; the memory guard drives the scheduler,
//! GPU, governor and ingress ([`memory_guard::GuardDeps`]); the sampler
//! drains the GPU's window and reads the governor
//! ([`sampler::SamplerDeps`]); and the ingress drives the scheduler,
//! GPU and memory guard ([`ingress::IngressDeps`]).

pub(crate) mod governor;
pub(crate) mod gpu;
pub(crate) mod gpu_policy;
pub(crate) mod ingress;
pub(crate) mod memory_guard;
pub(crate) mod sampler;
pub(crate) mod sched;

use std::collections::VecDeque;
use std::sync::Arc;

use jetsim_des::{CalendarQueue, SimDuration, SimRng, SimTime};
use jetsim_trt::Engine;

use crate::config::{ArrivalModel, SimConfig};
use crate::trace::EcStats;

use sched::RqThread;

/// Events driving the simulation, routed by the `Runner` to the
/// component that owns the matching typed stream.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Host-thread lifecycle ([`sched::CpuSched`]).
    Sched(sched::SchedEvent),
    /// GPU completions ([`gpu::GpuEngine`]).
    Gpu(gpu::GpuEvent),
    /// DVFS governor ticks ([`governor::Governor`]).
    Governor(governor::GovernorEvent),
    /// Injected faults ([`memory_guard::MemoryGuard`]).
    Memory(memory_guard::MemoryEvent),
    /// `jetson-stats` sampling ticks ([`sampler::Sampler`]).
    Sampler(sampler::SamplerEvent),
    /// Request arrivals, batch flushes and server completions
    /// ([`ingress::Ingress`]). Never scheduled for closed-loop configs.
    Ingress(ingress::IngressEvent),
}

/// Shared simulation state every component may read or mutate while
/// handling an event: the configuration, the event queue, the dynamics
/// RNG and the per-process state. Subsystem-private state lives inside
/// the components themselves.
pub(crate) struct Ctx<'a> {
    /// The run's immutable configuration.
    pub config: &'a SimConfig,
    /// The DES event queue (owned by the `Runner`, lent per event).
    pub queue: &'a mut CalendarQueue<Event>,
    /// The main dynamics RNG stream.
    pub rng: &'a mut SimRng,
    /// Per-process simulation state.
    pub procs: &'a mut Vec<Proc>,
    /// Liveness flags (`false` once the OOM killer fires).
    pub alive: &'a mut Vec<bool>,
    /// When each process was killed, if it was.
    pub killed_at: &'a mut Vec<Option<SimTime>>,
    /// Number of configured processes (cached as `u32` for the
    /// contention formulas).
    pub n_procs: u32,
    /// End of the warmup window.
    pub warmup_end: SimTime,
}

/// Per-process simulation state, shared across components: the scheduler
/// drives the host-thread fields, the GPU drains `ready`, and the
/// finaliser turns `ecs` into the process's statistics.
pub(crate) struct Proc {
    /// Process name.
    pub name: String,
    /// The engine this process executes.
    pub engine: Arc<Engine>,
    /// Next kernel index the host thread will launch.
    pub next_launch: usize,
    /// Sequence number of the current EC.
    pub ec_seq: u64,
    /// When the current EC's enqueue phase began.
    pub ec_start: SimTime,
    /// When the last launch of the current EC completed.
    pub enqueue_done_at: SimTime,
    /// Accumulated launch CPU time this EC.
    pub cur_launch: SimDuration,
    /// Accumulated blocking this EC.
    pub cur_blocking: SimDuration,
    /// Accumulated GPU time this EC.
    pub cur_gpu: SimDuration,
    /// Whether the thread recently migrated cores (cold caches).
    pub cache_cold: bool,
    /// How work arrives at this process.
    pub arrivals: ArrivalModel,
    /// Arrival time of the next unconsumed batch (open-loop modes).
    pub next_arrival: SimTime,
    /// Queueing delay of the EC currently in flight.
    pub cur_queue_delay: SimDuration,
    /// The serve group this process belongs to, `None` for closed-loop
    /// processes. Servers don't self-enqueue: the ingress component
    /// decides when (and on which engine) their next EC starts.
    pub serve_group: Option<usize>,
    /// Run-queue scheduler state for this thread.
    pub cpu: RqThread,
    /// Kernels launched and ready for the GPU, FIFO.
    pub ready: VecDeque<usize>,
    /// Statistics of the ECs completed inside the measured window.
    pub ecs: EcStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event slab must stay small: every hot-loop schedule/pop moves
    /// a `(SimTime, seq, Event)` entry, so the nested enum is packed into
    /// `u32` payloads. 16 bytes is the budget (discriminants + largest
    /// payload, `SchedEvent::CpuTick { pid: u32, gen: u32 }`).
    #[test]
    fn event_slab_fits_in_16_bytes() {
        assert!(
            std::mem::size_of::<Event>() <= 16,
            "Event grew to {} bytes; keep payloads u32 so the calendar \
             entries stay two words + payload",
            std::mem::size_of::<Event>()
        );
    }

    /// A serve trace keeps one request record per request, so its size
    /// is a budget: a new field must fit the 2 bytes of padding or pack
    /// into an existing one. This stands in for the golden-parity
    /// destructuring that the record's private fields rule out.
    #[test]
    fn request_record_fits_in_64_bytes() {
        assert!(
            std::mem::size_of::<crate::serving::RequestRecord>() <= 64,
            "RequestRecord grew to {} bytes",
            std::mem::size_of::<crate::serving::RequestRecord>()
        );
    }
}

//! SLO-aware request metrics distilled from a serving [`RunTrace`].
//!
//! Accounting is **logical**: a retry or hedge duplicate links back to
//! its parent via [`jetsim_sim::serving::RequestRecord::retry_of`] /
//! `hedge_of`, and the report counts each *chain* once — by its root.
//! A logical request is served when any chain member completes (the
//! earliest completion wins, so a hedge pair can never double-count
//! goodput), failed when every member reached a terminal drop, and
//! unfinished when the run ended with a member still queued or in
//! flight. Without resilience policies every chain is a single record
//! and the numbers reduce to the plain per-request accounting.

use std::collections::{HashMap, HashSet};
use std::fmt;

use jetsim_des::{SimDuration, SimTime};
use jetsim_sim::serving::{DropKind, RequestRecord, ServeEventKind};
use jetsim_sim::RunTrace;
use serde::Serialize;

/// Per-tenant (serve group) request accounting over the measured window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GroupReport {
    /// Serve group label (the tenant's `model:precision:bBATCH`).
    pub label: String,
    /// Logical requests that arrived inside the measured window (chain
    /// roots; retries and hedge duplicates attribute to their root).
    pub offered: usize,
    /// Logical requests completed successfully (any chain member).
    pub served: usize,
    /// Logical requests whose every attempt ended in a terminal drop.
    pub failed: usize,
    /// Physical arrivals turned away at admission ([`DropKind::Rejected`]).
    pub rejected: usize,
    /// Physical queued requests evicted to make room ([`DropKind::Shed`]).
    pub shed: usize,
    /// Physical requests dropped because their queueing deadline expired
    /// ([`DropKind::DeadlineExpired`]).
    pub deadline_expired: usize,
    /// Physical requests that died in flight on an OOM-killed replica
    /// ([`DropKind::Killed`]).
    pub killed_inflight: usize,
    /// Hedge duplicates cancelled because their twin won
    /// ([`DropKind::HedgeLoser`]).
    pub hedge_losers: usize,
    /// Physical arrivals shed by an open circuit breaker
    /// ([`DropKind::BreakerOpen`]).
    pub breaker_rejected: usize,
    /// Logical requests still queued or in flight when the run ended.
    pub unfinished: usize,
    /// Physical attempts submitted for the window's logical requests
    /// (roots + retries + hedge duplicates).
    pub attempts: usize,
    /// `attempts / offered` — 1.0 means no retry or hedge amplification.
    pub retry_amplification: f64,
    /// Offered load, logical requests/s.
    pub offered_qps: f64,
    /// Completed logical requests/s (regardless of latency).
    pub served_qps: f64,
    /// Completed logical requests/s that met the SLO — the number that
    /// matters.
    pub goodput_qps: f64,
    /// Fraction of *offered* logical requests that completed within the
    /// SLO.
    pub slo_attainment: f64,
    /// Fraction of offered logical requests that completed within the
    /// group's deadline (the SLO when no deadline is configured).
    pub deadline_hit_rate: f64,
    /// Median end-to-end latency, ms (root arrival → first completion).
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean time spent waiting in the admission queue, ms (completed
    /// physical attempts).
    pub mean_queue_wait_ms: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Deepest queue observed at a batch formation (queued + taken).
    pub max_queue_depth: usize,
    /// Batches dispatched on the degraded fallback engine.
    pub degraded_batches: usize,
    /// Circuit-breaker trips inside the window.
    pub breaker_trips: usize,
    /// Replica restarts completed inside the window.
    pub replica_restarts: usize,
    /// Replicas ejected for good inside the window.
    pub replica_ejected: usize,
    /// Mean time-to-recovery across completed restarts, ms (0 when no
    /// replica recovered).
    pub mttr_ms: f64,
    /// Integral of serving (warmed, un-reaped) replicas over the
    /// measured window, in replica-seconds — the capacity bill an
    /// autoscaled group actually pays. 0.0 for static groups, whose bill
    /// is `instances × measured_secs` by construction.
    pub replica_seconds: f64,
    /// Cold provisions over the whole run: the group's first start,
    /// counted only when no replica was up at t = 0.
    pub cold_starts: usize,
    /// Warm provisions over the whole run: every later start.
    pub warm_starts: usize,
    /// Mean provision→serving latency across cold starts, ms — the
    /// cold-start tax a scaled-from-zero arrival eats.
    pub cold_start_tax_ms: f64,
    /// Idle replicas reaped by the keep-alive timer over the whole run.
    pub reaps: usize,
    /// Times the group scaled to zero live replicas.
    pub scale_to_zero_parks: usize,
}

/// The full serving report: one [`GroupReport`] per tenant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Device the run simulated.
    pub device: String,
    /// Measured-window length, seconds (warmup excluded).
    pub measured_secs: f64,
    /// The SLO the latency columns are judged against, ms.
    pub slo_ms: f64,
    /// Per-tenant reports, in serve-group order.
    pub groups: Vec<GroupReport>,
}

/// Nearest-rank percentile `p` (0–100) over an already-sorted slice,
/// in ms; `0.0` for an empty slice.
pub fn percentile_ms(sorted: &[SimDuration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_millis_f64()
}

/// Each request record's chain root: the record itself, or the root of
/// the retry or hedge parent it duplicates. Parents always precede
/// their children in arrival order, so one forward pass resolves every
/// chain.
pub fn chain_roots(requests: &[RequestRecord]) -> Vec<usize> {
    let mut roots = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let root = r.retry_of.or(r.hedge_of).map_or(i, |parent| roots[parent]);
        roots.push(root);
    }
    roots
}

/// Rolled-up outcome of one logical request (chain of attempts).
struct Chain {
    group: usize,
    arrival: SimTime,
    in_window: bool,
    /// Earliest completion across members, if any.
    completion: Option<SimTime>,
    /// A member is still queued or in flight.
    pending: bool,
    /// Physical members.
    attempts: usize,
}

impl ServeReport {
    /// Distils per-tenant SLO metrics from a serving trace.
    ///
    /// Logical requests are attributed to the measured window by their
    /// *root's arrival* time (`arrival >= warmup`): a request that
    /// arrives in-window but completes after the configured duration
    /// still counts against attainment as `unfinished`, which is exactly
    /// the bias a real load-test window has. `deadline_hit_rate` is
    /// judged against `deadline`, the deadline the groups enforced, or
    /// against the SLO when there is none.
    pub fn from_trace_with_deadline(
        trace: &RunTrace,
        slo: SimDuration,
        warmup: SimDuration,
        deadline: Option<SimDuration>,
    ) -> Self {
        let window_start = SimTime::ZERO + warmup;
        let measured_secs = trace.measured.as_secs_f64();

        // Resolve every physical record to its chain root, then roll
        // chains up. Physical drop-cause counters stay per-record so the
        // report still shows *why* attempts died.
        let roots = chain_roots(&trace.requests);
        let mut chains: HashMap<usize, Chain> = HashMap::new();
        let n_groups = trace.serve_group_labels.len();
        let mut rejected = vec![0usize; n_groups];
        let mut shed = vec![0usize; n_groups];
        let mut deadline_expired = vec![0usize; n_groups];
        let mut killed_inflight = vec![0usize; n_groups];
        let mut hedge_losers = vec![0usize; n_groups];
        let mut breaker_rejected = vec![0usize; n_groups];
        let mut wait_total = vec![SimDuration::ZERO; n_groups];
        let mut wait_count = vec![0usize; n_groups];
        for (r, &root) in trace.requests.iter().zip(&roots) {
            let chain = chains.entry(root).or_insert_with(|| Chain {
                group: r.group,
                arrival: r.arrival,
                in_window: r.arrival >= window_start,
                completion: None,
                pending: false,
                attempts: 0,
            });
            chain.attempts += 1;
            let in_window = chain.in_window;
            if let Some(at) = r.completed {
                chain.completion = Some(chain.completion.map_or(at, |best| best.min(at)));
            } else if r.dropped.is_none() {
                chain.pending = true;
            }
            if !in_window {
                continue;
            }
            if let Some(drop) = &r.dropped {
                match drop.kind {
                    DropKind::Rejected => rejected[r.group] += 1,
                    DropKind::Shed => shed[r.group] += 1,
                    DropKind::DeadlineExpired => deadline_expired[r.group] += 1,
                    DropKind::Killed => killed_inflight[r.group] += 1,
                    DropKind::HedgeLoser => hedge_losers[r.group] += 1,
                    DropKind::BreakerOpen => breaker_rejected[r.group] += 1,
                    _ => {}
                }
            }
            if r.completed.is_some() {
                if let Some(wait) = r.queue_wait() {
                    wait_total[r.group] += wait;
                    wait_count[r.group] += 1;
                }
            }
        }

        let groups = trace
            .serve_group_labels
            .iter()
            .enumerate()
            .map(|(g, label)| {
                let mut offered = 0usize;
                let mut served = 0usize;
                let mut failed = 0usize;
                let mut unfinished = 0usize;
                let mut attempts = 0usize;
                let mut within_slo = 0usize;
                let mut within_deadline = 0usize;
                let mut latencies: Vec<SimDuration> = Vec::new();
                let promise = deadline.unwrap_or(slo);
                for chain in chains.values() {
                    if chain.group != g || !chain.in_window {
                        continue;
                    }
                    offered += 1;
                    attempts += chain.attempts;
                    match chain.completion {
                        Some(at) => {
                            served += 1;
                            let latency = at.saturating_since(chain.arrival);
                            if latency <= slo {
                                within_slo += 1;
                            }
                            if latency <= promise {
                                within_deadline += 1;
                            }
                            latencies.push(latency);
                        }
                        None if chain.pending => unfinished += 1,
                        None => failed += 1,
                    }
                }
                latencies.sort_unstable();

                let mut batches = 0usize;
                let mut batched_requests = 0u64;
                let mut degraded_batches = 0usize;
                let mut max_queue_depth = 0usize;
                let mut breaker_trips = 0usize;
                let mut replica_restarts = 0usize;
                let mut replica_ejected = 0usize;
                let mut down_at: HashMap<usize, SimTime> = HashMap::new();
                let mut recovery_total = SimDuration::ZERO;
                for e in trace
                    .serve_events
                    .iter()
                    .filter(|e| e.group == g && e.time >= window_start)
                {
                    match e.kind {
                        ServeEventKind::BatchFormed {
                            size,
                            queue_depth,
                            degraded,
                            ..
                        } => {
                            batches += 1;
                            batched_requests += u64::from(size);
                            degraded_batches += usize::from(degraded);
                            max_queue_depth = max_queue_depth.max(queue_depth + size as usize);
                        }
                        ServeEventKind::BreakerTrip { .. } => breaker_trips += 1,
                        ServeEventKind::ReplicaDown { pid, .. } => {
                            down_at.insert(pid, e.time);
                        }
                        ServeEventKind::ReplicaUp { pid } => {
                            replica_restarts += 1;
                            if let Some(down) = down_at.remove(&pid) {
                                recovery_total += e.time.saturating_since(down);
                            }
                        }
                        ServeEventKind::ReplicaEjected { .. } => replica_ejected += 1,
                        _ => {}
                    }
                }

                // Autoscaling telemetry replays the *full* event history:
                // the serving set at window start is the product of
                // warmups, provisions and reaps during warmup, so the
                // replica-seconds integral cannot start from the
                // in-window events alone. Static groups emit none of
                // these events and fall through with zeros.
                let window_end = window_start + trace.measured;
                let mut up_set: HashSet<usize> = HashSet::new();
                let mut serving_at_down: HashMap<usize, bool> = HashMap::new();
                let mut provisioned_at: HashMap<usize, (SimTime, bool)> = HashMap::new();
                let mut cold_starts = 0usize;
                let mut warm_starts = 0usize;
                let mut cold_tax_total = SimDuration::ZERO;
                let mut cold_tax_count = 0usize;
                let mut reaps = 0usize;
                let mut scale_to_zero_parks = 0usize;
                let mut replica_seconds = 0.0f64;
                let mut last_t = SimTime::ZERO;
                let advance = |to: SimTime, up: usize, last_t: &mut SimTime, acc: &mut f64| {
                    let from = (*last_t).max(window_start);
                    let until = to.min(window_end);
                    if until > from {
                        *acc += up as f64 * until.saturating_since(from).as_secs_f64();
                    }
                    *last_t = to;
                };
                for e in trace.serve_events.iter().filter(|e| e.group == g) {
                    match e.kind {
                        ServeEventKind::ReplicaProvisioned { pid, cold } => {
                            provisioned_at.insert(pid, (e.time, cold));
                            if cold {
                                cold_starts += 1;
                            } else {
                                warm_starts += 1;
                            }
                        }
                        ServeEventKind::ReplicaWarmed { pid } => {
                            advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                            up_set.insert(pid);
                            if let Some((at, cold)) = provisioned_at.remove(&pid) {
                                if cold {
                                    cold_tax_total += e.time.saturating_since(at);
                                    cold_tax_count += 1;
                                }
                            }
                        }
                        ServeEventKind::ReplicaReaped { pid } => {
                            advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                            up_set.remove(&pid);
                            reaps += 1;
                        }
                        ServeEventKind::ReplicaDown { pid, .. } => {
                            advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                            // A kill mid-provision cancels the start;
                            // drop the pending tax entry too.
                            provisioned_at.remove(&pid);
                            serving_at_down.insert(pid, up_set.remove(&pid));
                        }
                        // Restarts revive the *process*; it rejoins the
                        // serving set only if it was serving when it
                        // went down (parked replicas come back parked).
                        ServeEventKind::ReplicaUp { pid }
                            if serving_at_down.remove(&pid).unwrap_or(false) =>
                        {
                            advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                            up_set.insert(pid);
                        }
                        ServeEventKind::ParkedToZero => scale_to_zero_parks += 1,
                        _ => {}
                    }
                }
                advance(window_end, up_set.len(), &mut last_t, &mut replica_seconds);

                let per_sec = |count: usize| {
                    if measured_secs > 0.0 {
                        count as f64 / measured_secs
                    } else {
                        0.0
                    }
                };
                let over_offered = |count: usize| {
                    if offered > 0 {
                        count as f64 / offered as f64
                    } else {
                        0.0
                    }
                };
                GroupReport {
                    label: label.clone(),
                    offered,
                    served,
                    failed,
                    rejected: rejected[g],
                    shed: shed[g],
                    deadline_expired: deadline_expired[g],
                    killed_inflight: killed_inflight[g],
                    hedge_losers: hedge_losers[g],
                    breaker_rejected: breaker_rejected[g],
                    unfinished,
                    attempts,
                    retry_amplification: over_offered(attempts),
                    offered_qps: per_sec(offered),
                    served_qps: per_sec(served),
                    goodput_qps: per_sec(within_slo),
                    slo_attainment: over_offered(within_slo),
                    deadline_hit_rate: over_offered(within_deadline),
                    p50_ms: percentile_ms(&latencies, 50.0),
                    p95_ms: percentile_ms(&latencies, 95.0),
                    p99_ms: percentile_ms(&latencies, 99.0),
                    mean_queue_wait_ms: if wait_count[g] > 0 {
                        wait_total[g].as_millis_f64() / wait_count[g] as f64
                    } else {
                        0.0
                    },
                    mean_batch: if batches > 0 {
                        batched_requests as f64 / batches as f64
                    } else {
                        0.0
                    },
                    max_queue_depth,
                    degraded_batches,
                    breaker_trips,
                    replica_restarts,
                    replica_ejected,
                    mttr_ms: if replica_restarts > 0 {
                        recovery_total.as_millis_f64() / replica_restarts as f64
                    } else {
                        0.0
                    },
                    replica_seconds,
                    cold_starts,
                    warm_starts,
                    cold_start_tax_ms: if cold_tax_count > 0 {
                        cold_tax_total.as_millis_f64() / cold_tax_count as f64
                    } else {
                        0.0
                    },
                    reaps,
                    scale_to_zero_parks,
                }
            })
            .collect();
        ServeReport {
            device: trace.device_name.clone(),
            measured_secs,
            slo_ms: slo.as_millis_f64(),
            groups,
        }
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {:.1}s measured, {:.0}ms SLO",
            self.device, self.measured_secs, self.slo_ms
        )?;
        writeln!(
            f,
            "{:<24} {:>8} {:>8} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8} {:>6}",
            "tenant",
            "offered",
            "served",
            "drops",
            "qps",
            "goodput",
            "p50ms",
            "p95ms",
            "p99ms",
            "slo%"
        )?;
        for g in &self.groups {
            writeln!(
                f,
                "{:<24} {:>8} {:>8} {:>7} {:>9.1} {:>9.1} {:>8.2} {:>8.2} {:>8.2} {:>5.1}%",
                g.label,
                g.offered,
                g.served,
                g.rejected + g.shed + g.deadline_expired + g.killed_inflight + g.breaker_rejected,
                g.served_qps,
                g.goodput_qps,
                g.p50_ms,
                g.p95_ms,
                g.p99_ms,
                g.slo_attainment * 100.0,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let ms: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        assert_eq!(percentile_ms(&ms, 50.0), 50.0);
        assert_eq!(percentile_ms(&ms, 95.0), 95.0);
        assert_eq!(percentile_ms(&ms, 99.0), 99.0);
        assert_eq!(percentile_ms(&ms, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 99.0), 0.0);
        let one = [SimDuration::from_millis(7)];
        assert_eq!(percentile_ms(&one, 50.0), 7.0);
        assert_eq!(percentile_ms(&one, 99.0), 7.0);
    }
}

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
//!
//! The report is one flat pass with no hash table. [`roll_up_chains`]
//! folds every record into a `Vec` indexed by its chain's root record;
//! one pass over `requests` folds each group's request counters; one
//! pass over `serve_events` folds the batch, breaker, recovery and
//! autoscale counters, keeping per-replica state in pid-indexed `Vec`s.
//! Memory is linear in the request count: one 24-byte roll-up entry per
//! record plus one latency per served request, with no table slack.
//! Each group sees its own events in trace order, so its
//! replica-seconds float sum has one fixed order; every other aggregate
//! is an integer count or a sorted latency list, which the order
//! records are visited in cannot change.

use std::fmt;

use jetsim_des::{SimDuration, SimTime};
use jetsim_sim::serving::{DropKind, RequestRecord, ServeEventKind};
use jetsim_sim::RunTrace;
use serde::Serialize;

/// Per-tenant (serve group) request accounting over the measured window.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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

/// One logical request's roll-up: what its root record does not hold
/// itself. [`roll_up_chains`] stores it at the root's index.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chain {
    /// Earliest completion across the chain's members.
    pub completion: Option<SimTime>,
    /// A member is still queued or in flight.
    pub pending: bool,
    /// Physical members: the root, its retries and hedge duplicates.
    pub attempts: u32,
}

/// The root record of record `i`'s chain: `i` itself, or the root of the
/// retry or hedge parent it duplicates. A parent always precedes its
/// children, and a chain is at most one hedge and the retry budget deep.
fn root_of(requests: &[RequestRecord], mut i: usize) -> usize {
    while let Some(parent) = requests[i].retry_of().or(requests[i].hedge_of()) {
        debug_assert!(parent < i, "request {i} links forward to {parent}");
        i = parent;
    }
    i
}

/// Rolls every request chain up in one pass over `requests`: entry `i`
/// is the roll-up of the chain rooted at record `i`. Entries of records
/// that are not roots stay at the default.
pub fn roll_up_chains(requests: &[RequestRecord]) -> Vec<Chain> {
    let mut chains = vec![Chain::default(); requests.len()];
    for (i, r) in requests.iter().enumerate() {
        let chain = &mut chains[root_of(requests, i)];
        chain.attempts += 1;
        if let Some(at) = r.completed() {
            chain.completion = Some(chain.completion.map_or(at, |best| best.min(at)));
        } else if r.dropped().is_none() {
            chain.pending = true;
        }
    }
    chains
}

/// One serve group's report under construction: its counters fold in
/// place, record by record and event by event, beside the running sums
/// its rates and means come from.
#[derive(Default)]
struct GroupAcc {
    report: GroupReport,
    within_slo: usize,
    within_deadline: usize,
    latencies: Vec<SimDuration>,
    wait_total: SimDuration,
    wait_count: usize,
    batches: usize,
    batched_requests: u64,
    recovery_total: SimDuration,
    cold_tax_total: SimDuration,
    cold_tax_count: usize,
    /// Replicas in the serving set (warmed, not reaped, not down).
    up: usize,
    /// How far the replica-seconds integral has advanced.
    last_t: SimTime,
}

impl GroupAcc {
    /// Accrues the serving set's replica-seconds from the previous event
    /// up to `to`, clipped to the measured `window`.
    fn advance(&mut self, to: SimTime, window: (SimTime, SimTime)) {
        let from = self.last_t.max(window.0);
        let until = to.min(window.1);
        if until > from {
            self.report.replica_seconds +=
                self.up as f64 * until.saturating_since(from).as_secs_f64();
        }
        self.last_t = to;
    }

    /// Fills in the rates, percentiles and means.
    fn finish(mut self, measured_secs: f64) -> GroupReport {
        let mut g = self.report;
        debug_assert_eq!(
            g.served + g.failed + g.unfinished,
            g.offered,
            "group {}: served {} + failed {} + unfinished {} != offered {}",
            g.label,
            g.served,
            g.failed,
            g.unfinished,
            g.offered
        );
        let per_sec = |count: usize| {
            if measured_secs > 0.0 {
                count as f64 / measured_secs
            } else {
                0.0
            }
        };
        let offered = g.offered;
        let over_offered = |count: usize| {
            if offered > 0 {
                count as f64 / offered as f64
            } else {
                0.0
            }
        };
        let mean_ms = |total: SimDuration, count: usize| {
            if count > 0 {
                total.as_millis_f64() / count as f64
            } else {
                0.0
            }
        };
        self.latencies.sort_unstable();
        g.retry_amplification = over_offered(g.attempts);
        g.offered_qps = per_sec(g.offered);
        g.served_qps = per_sec(g.served);
        g.goodput_qps = per_sec(self.within_slo);
        g.slo_attainment = over_offered(self.within_slo);
        g.deadline_hit_rate = over_offered(self.within_deadline);
        g.p50_ms = percentile_ms(&self.latencies, 50.0);
        g.p95_ms = percentile_ms(&self.latencies, 95.0);
        g.p99_ms = percentile_ms(&self.latencies, 99.0);
        g.mean_queue_wait_ms = mean_ms(self.wait_total, self.wait_count);
        g.mean_batch = if self.batches > 0 {
            self.batched_requests as f64 / self.batches as f64
        } else {
            0.0
        };
        g.mttr_ms = mean_ms(self.recovery_total, g.replica_restarts);
        g.cold_start_tax_ms = mean_ms(self.cold_tax_total, self.cold_tax_count);
        g
    }
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
        let chains = roll_up_chains(&trace.requests);
        Self::from_chains(trace, &chains, slo, warmup, deadline)
    }

    /// [`ServeReport::from_trace_with_deadline`] over chains already
    /// rolled up by [`roll_up_chains`]`(&trace.requests)`, for a caller
    /// that also reads them.
    pub fn from_chains(
        trace: &RunTrace,
        chains: &[Chain],
        slo: SimDuration,
        warmup: SimDuration,
        deadline: Option<SimDuration>,
    ) -> Self {
        debug_assert_eq!(
            chains.len(),
            trace.requests.len(),
            "one roll-up entry per record"
        );
        let window_start = SimTime::ZERO + warmup;
        let window = (window_start, window_start + trace.measured);
        let measured_secs = trace.measured.as_secs_f64();
        let promise = deadline.unwrap_or(slo);
        let mut groups: Vec<GroupAcc> = trace
            .serve_group_labels
            .iter()
            .map(|label| GroupAcc {
                report: GroupReport {
                    label: label.clone(),
                    ..GroupReport::default()
                },
                ..GroupAcc::default()
            })
            .collect();

        // Requests: a record counts when its chain's root arrived inside
        // the window. Each root settles its logical request; physical
        // drop causes and queue waits stay per record, so the report
        // still shows *why* attempts died.
        for (i, r) in trace.requests.iter().enumerate() {
            let root = root_of(&trace.requests, i);
            if trace.requests[root].arrival < window_start {
                continue;
            }
            let acc = &mut groups[r.group()];
            if let Some(drop) = r.dropped() {
                match drop.kind {
                    DropKind::Rejected => acc.report.rejected += 1,
                    DropKind::Shed => acc.report.shed += 1,
                    DropKind::DeadlineExpired => acc.report.deadline_expired += 1,
                    DropKind::Killed => acc.report.killed_inflight += 1,
                    DropKind::HedgeLoser => acc.report.hedge_losers += 1,
                    DropKind::BreakerOpen => acc.report.breaker_rejected += 1,
                    _ => {}
                }
            }
            if r.served() {
                if let Some(wait) = r.queue_wait() {
                    acc.wait_total += wait;
                    acc.wait_count += 1;
                }
            }
            if root != i {
                continue;
            }
            let chain = &chains[i];
            acc.report.offered += 1;
            acc.report.attempts += chain.attempts as usize;
            match chain.completion {
                Some(at) => {
                    acc.report.served += 1;
                    let latency = r.since_arrival(at);
                    acc.within_slo += usize::from(latency <= slo);
                    acc.within_deadline += usize::from(latency <= promise);
                    acc.latencies.push(latency);
                }
                None if chain.pending => acc.report.unfinished += 1,
                None => acc.report.failed += 1,
            }
        }

        // Serve events, in trace order. Batch, breaker and recovery
        // counters read the window only. The autoscale telemetry replays
        // the *full* history: the serving set at window start is the
        // product of warmups, provisions and reaps during warmup, so the
        // replica-seconds integral cannot start from the in-window events
        // alone. Static groups emit none of those events and keep zeros.
        // Per-replica state is indexed by pid; a pid serves one group.
        let n_pids = trace.processes.len();
        let mut down_at: Vec<Option<SimTime>> = vec![None; n_pids];
        let mut up = vec![false; n_pids];
        let mut serving_at_down = vec![false; n_pids];
        let mut provisioned_at: Vec<Option<(SimTime, bool)>> = vec![None; n_pids];
        for e in &trace.serve_events {
            let acc = &mut groups[e.group];
            let in_window = e.time >= window_start;
            match e.kind {
                ServeEventKind::BatchFormed {
                    size,
                    queue_depth,
                    degraded,
                    ..
                } if in_window => {
                    acc.batches += 1;
                    acc.batched_requests += u64::from(size);
                    acc.report.degraded_batches += usize::from(degraded);
                    acc.report.max_queue_depth =
                        acc.report.max_queue_depth.max(queue_depth + size as usize);
                }
                ServeEventKind::BreakerTrip { .. } if in_window => acc.report.breaker_trips += 1,
                ServeEventKind::ReplicaDown { pid, .. } => {
                    if in_window {
                        down_at[pid] = Some(e.time);
                    }
                    acc.advance(e.time, window);
                    // A kill mid-provision cancels the start; drop the
                    // pending tax entry too.
                    provisioned_at[pid] = None;
                    serving_at_down[pid] = std::mem::take(&mut up[pid]);
                    acc.up -= usize::from(serving_at_down[pid]);
                }
                ServeEventKind::ReplicaUp { pid } => {
                    if in_window {
                        acc.report.replica_restarts += 1;
                        if let Some(down) = down_at[pid].take() {
                            acc.recovery_total += e.time.saturating_since(down);
                        }
                    }
                    // Restarts revive the *process*; it rejoins the
                    // serving set only if it was serving when it went
                    // down (parked replicas come back parked).
                    if std::mem::take(&mut serving_at_down[pid]) {
                        acc.advance(e.time, window);
                        acc.up += usize::from(!std::mem::replace(&mut up[pid], true));
                    }
                }
                ServeEventKind::ReplicaEjected { .. } if in_window => {
                    acc.report.replica_ejected += 1
                }
                ServeEventKind::ReplicaProvisioned { pid, cold } => {
                    provisioned_at[pid] = Some((e.time, cold));
                    if cold {
                        acc.report.cold_starts += 1;
                    } else {
                        acc.report.warm_starts += 1;
                    }
                }
                ServeEventKind::ReplicaWarmed { pid } => {
                    acc.advance(e.time, window);
                    acc.up += usize::from(!std::mem::replace(&mut up[pid], true));
                    if let Some((at, true)) = provisioned_at[pid].take() {
                        acc.cold_tax_total += e.time.saturating_since(at);
                        acc.cold_tax_count += 1;
                    }
                }
                ServeEventKind::ReplicaReaped { pid } => {
                    acc.advance(e.time, window);
                    acc.up -= usize::from(std::mem::take(&mut up[pid]));
                    acc.report.reaps += 1;
                }
                ServeEventKind::ParkedToZero => acc.report.scale_to_zero_parks += 1,
                _ => {}
            }
        }

        let groups = groups
            .into_iter()
            .map(|mut acc| {
                acc.advance(window.1, window);
                acc.finish(measured_secs)
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

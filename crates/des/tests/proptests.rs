//! Property-based tests for the discrete-event core.

use proptest::prelude::*;

use jetsim_des::{CalendarQueue, SimDuration, SimRng, SimTime};

#[path = "support/queue.rs"]
mod queue;

use queue::EventQueue;

/// Where a generated event lands, relative to the queues' state when it
/// is scheduled.
#[derive(Debug, Clone, Copy)]
enum At {
    /// `now() + d` for `d` in `0..7`: the next kernel step, or a tie with
    /// the event just popped.
    Next(u64),
    /// Up to 2²⁰ ns (`f / 4096` of it) before `now()`.
    Past(u64),
    /// The time of the `k`-th most recent schedule: an equal-time tie.
    Tie(usize),
    /// Up to 2²² ns (`f / 1024` of 2²⁰) after `now()`: a far-off timer.
    Ahead(u64),
    /// `u64::MAX - d` nanoseconds: the end of time.
    End(u64),
}

#[derive(Debug, Clone)]
enum Op {
    Schedule(At),
    Batch(Vec<At>),
    Pop,
    Clear,
}

fn at() -> impl Strategy<Value = At> {
    (0u8..9, 0u64..7, 0u64..4096, 0usize..16).prop_map(|(kind, d, f, k)| match kind {
        0..=2 => At::Next(d),
        3 => At::Past(f),
        4..=5 => At::Tie(k),
        6..=7 => At::Ahead(f),
        _ => At::End(d),
    })
}

fn mixed_op() -> impl Strategy<Value = Op> {
    (0u8..20, at(), prop::collection::vec(at(), 0..8)).prop_map(|(kind, at, batch)| match kind {
        0..=7 => Op::Schedule(at),
        8..=9 => Op::Batch(batch),
        10..=18 => Op::Pop,
        _ => Op::Clear,
    })
}

proptest! {
    /// The calendar queue is observationally identical to the binary
    /// heap: same pops (time and payload) for any interleaving of
    /// schedules and pops, including duplicate timestamps, events far
    /// ahead of the rest, and scheduling into the past.
    ///
    /// `Some(t)` schedules payload `i` at `t`; `None` pops both queues
    /// and compares.
    #[test]
    fn calendar_queue_matches_heap(
        ops in prop::collection::vec(
            prop::option::weighted(0.7, 0u64..(1u64 << 34)),
            1..300,
        ),
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Some(t) => {
                    let time = SimTime::from_nanos(t);
                    heap.schedule(time, i);
                    cal.schedule(time, i);
                }
                None => prop_assert_eq!(heap.pop(), cal.pop()),
            }
        }
        prop_assert_eq!(heap.len(), cal.len());
        while let Some(expected) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expected));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// `schedule_batch` is observationally identical to scheduling the
    /// same items one by one on the heap: bursts of appends sorted once,
    /// interleaved with pops, never reorder anything.
    #[test]
    fn calendar_batch_matches_heap(
        rounds in prop::collection::vec(
            (
                prop::collection::vec(0u64..(1u64 << 30), 0..20), // batch times
                prop::option::weighted(0.5, 0u64..(1u64 << 30)),  // single schedule
                0usize..4,                                        // pops
            ),
            1..40,
        ),
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut id = 0u64;
        for (batch, single, pops) in rounds {
            let items: Vec<(SimTime, u64)> = batch
                .into_iter()
                .map(|t| {
                    let item = (SimTime::from_nanos(t), id);
                    id += 1;
                    item
                })
                .collect();
            heap.extend(items.iter().copied());
            cal.schedule_batch(items);
            if let Some(t) = single {
                heap.schedule(SimTime::from_nanos(t), id);
                cal.schedule(SimTime::from_nanos(t), id);
                id += 1;
            }
            for _ in 0..pops {
                prop_assert_eq!(heap.pop(), cal.pop());
            }
        }
        while let Some(expected) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expected));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// After `clear`, both backends behave like freshly constructed
    /// queues: `now` rewinds to zero, and scheduling times earlier than
    /// anything popped before the clear needs no special handling.
    #[test]
    fn cleared_queues_accept_the_past(
        before in prop::collection::vec(1_000_000u64..2_000_000, 1..20),
        after in prop::collection::vec(0u64..1_000, 1..20),
        delay in 0u64..10_000,
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, &t) in before.iter().enumerate() {
            heap.schedule(SimTime::from_nanos(t), i);
            cal.schedule(SimTime::from_nanos(t), i);
        }
        // Pop a few to advance `now` deep into the run, then wipe.
        for _ in 0..=(before.len() / 2) {
            prop_assert_eq!(heap.pop(), cal.pop());
        }
        heap.clear();
        cal.clear();
        prop_assert_eq!(heap.now(), SimTime::ZERO);
        prop_assert_eq!(cal.now(), SimTime::ZERO);
        prop_assert!(heap.is_empty() && cal.is_empty());
        // Scheduling into what used to be the past must work on both.
        for (i, &t) in after.iter().enumerate() {
            heap.schedule(SimTime::from_nanos(t), i);
            cal.schedule(SimTime::from_nanos(t), i);
        }
        heap.schedule_after(SimDuration::from_nanos(delay), usize::MAX);
        cal.schedule_after(SimDuration::from_nanos(delay), usize::MAX);
        while let Some(expected) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expected));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// `peek_time` never disagrees with the next pop.
    #[test]
    fn calendar_peek_agrees_with_pop(
        ops in prop::collection::vec(
            prop::option::weighted(0.6, 0u64..(1u64 << 20)),
            1..200,
        ),
    ) {
        let mut cal = CalendarQueue::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Some(t) => cal.schedule(SimTime::from_nanos(t), i),
                None => {
                    let peeked = cal.peek_time();
                    let popped = cal.pop();
                    prop_assert_eq!(peeked, popped.map(|(t, _)| t));
                }
            }
        }
    }

    /// Every step lines up with the heap under the event mix a
    /// simulation produces: a chain of events due right after `now()`
    /// with far-off timers pending behind it, events before `now()`,
    /// equal-time ties, events at the end of time, `schedule_batch`
    /// bursts landing among pending events, and `clear()` mid-run, with
    /// `peek_time`, `len` and `now` compared after every step.
    #[test]
    fn calendar_mixed_ops_match_heap(ops in prop::collection::vec(mixed_op(), 1..200)) {
        const SPAN: u128 = 1 << 20;
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut scheduled: Vec<u64> = Vec::new();
        let mut id = 0u64;
        for op in ops {
            let mut resolve = |at: At| {
                let now = u128::from(heap.now().as_nanos());
                let t = match at {
                    At::Next(d) => now + u128::from(d),
                    At::Past(f) => now.saturating_sub(SPAN * u128::from(f) / 4096),
                    At::Tie(k) if !scheduled.is_empty() => {
                        u128::from(scheduled[scheduled.len() - 1 - k % scheduled.len()])
                    }
                    At::Tie(_) => now,
                    At::Ahead(f) => now + SPAN * u128::from(f) / 1024,
                    At::End(d) => u128::from(u64::MAX - d),
                };
                let t = u64::try_from(t).unwrap_or(u64::MAX);
                scheduled.push(t);
                id += 1;
                (SimTime::from_nanos(t), id)
            };
            match op {
                Op::Schedule(at) => {
                    let (time, event) = resolve(at);
                    heap.schedule(time, event);
                    cal.schedule(time, event);
                }
                Op::Batch(ats) => {
                    let items: Vec<(SimTime, u64)> = ats.into_iter().map(&mut resolve).collect();
                    heap.extend(items.iter().copied());
                    cal.schedule_batch(items);
                }
                Op::Pop => prop_assert_eq!(cal.pop(), heap.pop()),
                Op::Clear => {
                    heap.clear();
                    cal.clear();
                }
            }
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.now(), heap.now());
        }
        while let Some(expected) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expected));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// `schedule_after` on both backends is relative to the same clock:
    /// the time of the most recent pop.
    #[test]
    fn calendar_schedule_after_matches_heap(
        delays in prop::collection::vec(0u64..100_000u64, 1..100),
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            heap.schedule_after(SimDuration::from_nanos(d), i);
            cal.schedule_after(SimDuration::from_nanos(d), i);
            if i % 3 == 0 {
                prop_assert_eq!(heap.pop(), cal.pop());
                prop_assert_eq!(heap.now(), cal.now());
            }
        }
        while let Some(expected) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expected));
        }
    }
    /// Popping the queue always yields events in non-decreasing time
    /// order, regardless of insertion order.
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Equal-time events preserve insertion order (stable tie-break).
    #[test]
    fn queue_ties_are_fifo(n in 1usize..100, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// The queue agrees with a sort-based reference model.
    #[test]
    fn queue_matches_reference_model(times in prop::collection::vec(0u64..10_000, 0..100)) {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
            reference.push((t, i));
        }
        reference.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        prop_assert_eq!(popped, reference);
    }

    /// Duration arithmetic is consistent: (a + b) - b == a.
    #[test]
    fn duration_add_sub_round_trip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
    }

    /// Time plus duration always moves forward and `since` inverts it.
    #[test]
    fn time_translation_inverts(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let base = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        let later = base + dur;
        prop_assert!(later >= base);
        prop_assert_eq!(later.since(base), dur);
        prop_assert_eq!(later - dur, base);
    }

    /// mul_f64 with factor in [0, 2] stays within one ULP-ish bound and
    /// never panics.
    #[test]
    fn duration_mul_f64_bounded(nanos in 0u64..1_000_000_000, factor in 0.0f64..2.0) {
        let d = SimDuration::from_nanos(nanos);
        let scaled = d.mul_f64(factor);
        let expected = nanos as f64 * factor;
        prop_assert!((scaled.as_nanos() as f64 - expected).abs() <= 1.0);
    }

    /// The float-to-duration conversions round exactly as the plain
    /// `round() as u64` they replaced, on arbitrary bit patterns (every
    /// sign, NaN, infinities, subnormals and huge exponents), on
    /// magnitudes the simulator produces, and on exact halves.
    #[test]
    fn float_conversions_match_legacy_rounding(
        bits in any::<u64>(),
        nanos in any::<u64>(),
        small in 0.0f64..1.0e12,
        whole in 0u64..(1 << 52),
    ) {
        let half = whole as f64 + 0.5;
        for x in [f64::from_bits(bits), small, small * 1e-9, half] {
            check_against_legacy(x, nanos)?;
        }
    }

    /// Same seed ⇒ identical stream.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.uniform_u64(0, u64::MAX), b.uniform_u64(0, u64::MAX));
        }
    }

    /// uniform() respects its bounds for arbitrary finite ranges.
    #[test]
    fn rng_uniform_in_bounds(seed in any::<u64>(), lo in -1.0e6f64..1.0e6, width in 0.0f64..1.0e6) {
        let mut rng = SimRng::seed_from(seed);
        let hi = lo + width;
        let v = rng.uniform(lo, hi);
        prop_assert!(v >= lo && v <= hi, "v={v} not in [{lo}, {hi}]");
    }
}

/// `SimDuration::from_secs_f64`, as first written.
fn legacy_from_secs(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9).round() as u64
}

/// `SimDuration::from_micros_f64`, as first written.
fn legacy_from_micros(micros: f64) -> u64 {
    (micros.max(0.0) * 1e3).round() as u64
}

/// `SimDuration::mul_f64`, as first written.
fn legacy_mul(nanos: u64, factor: f64) -> u64 {
    (nanos as f64 * factor.max(0.0)).round() as u64
}

/// All three conversions at `x` against their legacy forms. Scaling one
/// nanosecond by `x` is exact, so that line checks the rounding at `x`
/// itself.
fn check_against_legacy(x: f64, nanos: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        SimDuration::from_secs_f64(x).as_nanos(),
        legacy_from_secs(x),
        "from_secs_f64({:e})",
        x
    );
    prop_assert_eq!(
        SimDuration::from_micros_f64(x).as_nanos(),
        legacy_from_micros(x),
        "from_micros_f64({:e})",
        x
    );
    for n in [0, 1, nanos] {
        prop_assert_eq!(
            SimDuration::from_nanos(n).mul_f64(x).as_nanos(),
            legacy_mul(n, x),
            "{}ns × {:e}",
            n,
            x
        );
    }
    Ok(())
}

/// The rounding edges: halves (which round away from zero), the largest
/// double below one half, and the neighbours of 2^52 (where every double
/// becomes an integer), 2^53, 2^63 and 2^64 (where `as u64` saturates).
#[test]
fn float_conversion_edges_match_legacy_rounding() {
    let mut edges = vec![
        0.0,
        -0.0,
        0.49999999999999994,
        0.5,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        -0.5,
        -1.5,
    ];
    edges.extend((0..1000).map(|k| k as f64 + 0.5));
    edges.extend((0..64).map(|k| (1u64 << 51) as f64 - 64.0 + k as f64 + 0.5));
    for exp in [52, 53, 63, 64] {
        let p = 2f64.powi(exp);
        for step in 0..=8u64 {
            edges.push(f64::from_bits(p.to_bits() + step));
            edges.push(f64::from_bits(p.to_bits() - step));
        }
        for offset in [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5] {
            edges.push(p + offset);
        }
    }
    let scaled: Vec<f64> = edges.iter().flat_map(|&x| [x / 1e9, x / 1e3]).collect();
    for x in edges.into_iter().chain(scaled) {
        for nanos in [2, 3, 1_000_000_007, u64::MAX] {
            if let Err(e) = check_against_legacy(x, nanos) {
                panic!("{e}");
            }
        }
    }
}

#[test]
fn matches_heap_on_random_workload() {
    let mut rng = SimRng::seed_from(42);
    let mut heap = EventQueue::new();
    let mut cal = CalendarQueue::new();
    let mut id = 0u64;
    // Interleave schedules and pops with a drifting time base.
    let mut base = 0u64;
    for round in 0..200 {
        let burst = 1 + rng.uniform_u64(0, 7) as usize;
        for _ in 0..burst {
            let t = SimTime::from_nanos(base + rng.uniform_u64(0, 5_000));
            heap.schedule(t, id);
            cal.schedule(t, id);
            id += 1;
        }
        let pops = if round % 3 == 0 { burst + 1 } else { burst / 2 };
        for _ in 0..pops {
            assert_eq!(heap.pop(), cal.pop());
        }
        base += rng.uniform_u64(0, 2_000);
    }
    loop {
        let (h, c) = (heap.pop(), cal.pop());
        assert_eq!(h, c);
        if h.is_none() {
            break;
        }
    }
}

#[test]
// `id` is a global event label, not a counter for the round loop:
// it advances by the (varying) burst length plus one each round.
#[allow(clippy::explicit_counter_loop)]
fn batch_interleaves_with_singles() {
    let mut heap = EventQueue::new();
    let mut cal = CalendarQueue::new();
    let mut id = 0u64;
    for round in 0u64..50 {
        let burst: Vec<(SimTime, u64)> = (0..round % 7)
            .map(|k| {
                let item = (SimTime::from_nanos(round * 100 + k * 13 % 900), id);
                id += 1;
                item
            })
            .collect();
        heap.extend(burst.iter().copied());
        cal.schedule_batch(burst);
        heap.schedule(SimTime::from_nanos(round * 37), id);
        cal.schedule(SimTime::from_nanos(round * 37), id);
        id += 1;
        if round % 2 == 0 {
            assert_eq!(heap.pop(), cal.pop());
        }
    }
    loop {
        let (h, c) = (heap.pop(), cal.pop());
        assert_eq!(h, c);
        if h.is_none() {
            break;
        }
    }
}

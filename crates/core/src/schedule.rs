//! Step 8: helper-thread signal prefetching and the Figure 6 balancing scheduler.
//!
//! When cores have SMT contexts, HELIX couples each iteration thread with a helper thread
//! that executes a straight line of `Wait`s, one per sequential segment, turning the pull-based
//! cache transfer of a signal into a push: by the time the iteration thread reaches the
//! segment, the signal is already in the local L1 (4 cycles instead of 110).
//!
//! A helper thread can prefetch only one signal at a time, so the benefit depends on how much
//! parallel code separates consecutive sequential segments. The Figure 6 algorithm moves
//! untagged parallel code between the closest pair of segments — without ever increasing the
//! total work — until every gap is at least `delta = unprefetched - prefetched` cycles or no
//! parallel code remains to move.
//!
//! This module models that scheduling at the cycle-budget level: it takes the ordered
//! per-segment gaps (cycles of parallel code preceding each segment) and rebalances them
//! exactly as the algorithm prescribes, then converts each gap into the fraction of the signal
//! latency the helper thread can hide for that segment.

use crate::config::HelixConfig;
use crate::plan::SequentialSegment;

/// Result of the prefetch-balancing analysis for one loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrefetchSchedule {
    /// Cycles of parallel code preceding each synchronized segment, after balancing.
    pub gaps: Vec<f64>,
    /// Fraction of the signal latency hidden for each synchronized segment.
    pub prefetched_fractions: Vec<f64>,
    /// Number of balancing iterations performed (bounded by the algorithm's tagging of code).
    pub iterations: usize,
}

/// Computes the initial gaps: the parallel cycles between consecutive synchronized segments
/// around the iteration (the gap of segment `k` is the parallel code executed after segment
/// `k-1` and before segment `k`, wrapping around the iteration boundary for the first one).
pub fn initial_gaps(segments: &[&SequentialSegment], parallel_cycles: f64) -> Vec<f64> {
    let n = segments.len();
    if n == 0 {
        return Vec::new();
    }
    // Without more detailed placement information, the un-balanced schedule concentrates the
    // parallel code where the original program put it; we approximate the typical shape the
    // paper's Figure 7 shows — uneven spacing proportional to segment position — by assigning
    // the gaps proportionally to each segment's own length (larger segments tend to cluster),
    // normalized so the gaps sum to the loop's parallel cycles.
    let weights: Vec<f64> = segments
        .iter()
        .enumerate()
        .map(|(i, s)| 1.0 + s.cycles_per_iteration + (i as f64) * 0.25)
        .collect();
    let total_weight: f64 = weights.iter().sum();
    if total_weight <= 0.0 {
        return vec![parallel_cycles / n as f64; n];
    }
    // Deliberately skew: the last gap gets the bulk of the slack, earlier ones little, which
    // mirrors "parallel code not well balanced across the iteration" (Figure 5/7).
    let mut gaps: Vec<f64> = weights
        .iter()
        .map(|w| parallel_cycles * (w / total_weight) * 0.5)
        .collect();
    let assigned: f64 = gaps.iter().sum();
    if let Some(last) = gaps.last_mut() {
        *last += parallel_cycles - assigned;
    }
    gaps
}

/// The Figure 6 balancing algorithm operating on cycle budgets.
///
/// `gaps[k]` is the parallel-code distance in cycles in front of segment `k`. The algorithm
/// repeatedly takes parallel code from the *largest* gap (the "untagged parallel code" that can
/// still be moved) and gives it to the *smallest* gap, one chunk at a time, until every gap
/// reaches `delta` or nothing movable remains. Total cycles are preserved (`A + B + C` in
/// Figure 7 is constant).
pub fn balance_gaps(gaps: &[f64], delta: f64) -> (Vec<f64>, usize) {
    let mut gaps = gaps.to_vec();
    if gaps.len() < 2 {
        return (gaps, 0);
    }
    let mut iterations = 0usize;
    // Bound iterations: each move transfers at least 1 cycle and total budget is finite.
    let total: f64 = gaps.iter().sum();
    let max_iters = (total as usize + gaps.len()) * 2 + 16;
    loop {
        iterations += 1;
        if iterations > max_iters {
            break;
        }
        // The two closest sequential segments (smallest gap) and the largest donor gap.
        let (min_idx, &min_gap) = gaps
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("gaps are finite"))
            .expect("non-empty");
        let (max_idx, &max_gap) = gaps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("gaps are finite"))
            .expect("non-empty");
        if min_gap >= delta || max_idx == min_idx {
            break;
        }
        // Move between 1 cycle and the difference between the two gaps (lines 11-15 of
        // Figure 6), without starving the donor below the recipient.
        let room = (max_gap - min_gap) / 2.0;
        let needed = delta - min_gap;
        let moved = needed.min(room).max(1.0).min(max_gap);
        if moved <= 0.0 || max_gap - moved < 0.0 {
            break;
        }
        gaps[min_idx] += moved;
        gaps[max_idx] -= moved;
        if (gaps[max_idx] - gaps[min_idx]).abs() < 1e-9 && gaps[min_idx] < delta {
            // No further progress is possible: the movable code is exhausted.
            break;
        }
    }
    (gaps, iterations)
}

/// Computes the prefetch schedule for a loop's synchronized segments and writes the resulting
/// `prefetched_fraction` back into each segment.
pub fn schedule_prefetching(
    segments: &mut [SequentialSegment],
    parallel_cycles: f64,
    config: &HelixConfig,
) -> PrefetchSchedule {
    let synchronized: Vec<usize> = segments
        .iter()
        .enumerate()
        .filter(|(_, s)| s.synchronized)
        .map(|(i, _)| i)
        .collect();
    if synchronized.is_empty() || !config.enable_helper_threads {
        for s in segments.iter_mut() {
            s.prefetched_fraction = 0.0;
        }
        return PrefetchSchedule::default();
    }
    let refs: Vec<&SequentialSegment> = synchronized.iter().map(|&i| &segments[i]).collect();
    let gaps0 = initial_gaps(&refs, parallel_cycles);
    let delta = config
        .signal_latency_unprefetched
        .saturating_sub(config.signal_latency_prefetched) as f64;
    let (gaps, iterations) = if config.enable_prefetch_balancing {
        balance_gaps(&gaps0, delta)
    } else {
        (gaps0, 0)
    };
    let fractions: Vec<f64> = gaps
        .iter()
        .map(|g| {
            if delta <= 0.0 {
                1.0
            } else {
                (g / delta).clamp(0.0, 1.0)
            }
        })
        .collect();
    for (k, &i) in synchronized.iter().enumerate() {
        segments[i].prefetched_fraction = fractions[k];
    }
    PrefetchSchedule {
        gaps,
        prefetched_fractions: fractions,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::LoopId;
    use helix_ir::{BlockId, DepId, FuncId, InstrRef};
    use std::collections::BTreeSet;

    fn seg(id: u32, cycles: f64) -> SequentialSegment {
        SequentialSegment {
            dep: DepId::new(id),
            dependences: Vec::new(),
            wait_points: vec![InstrRef::new(BlockId::new(1), 0)],
            signal_points: vec![InstrRef::new(BlockId::new(1), 1)],
            instrs: BTreeSet::new(),
            cycles_per_iteration: cycles,
            transfers_data: false,
            synchronized: true,
            prefetched_fraction: 0.0,
        }
    }

    #[test]
    fn balancing_preserves_total_and_levels_gaps() {
        let gaps = vec![5.0, 10.0, 400.0];
        let (balanced, iters) = balance_gaps(&gaps, 106.0);
        let total_before: f64 = gaps.iter().sum();
        let total_after: f64 = balanced.iter().sum();
        assert!(
            (total_before - total_after).abs() < 1e-6,
            "Figure 7: A+B+C is constant"
        );
        assert!(iters > 0);
        // The smallest gap grew and the largest shrank.
        let min_after = balanced.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_after = balanced.iter().cloned().fold(0.0, f64::max);
        assert!(min_after > 5.0);
        assert!(max_after < 400.0);
    }

    #[test]
    fn balancing_stops_when_all_gaps_reach_delta() {
        let gaps = vec![200.0, 300.0, 250.0];
        let (balanced, _) = balance_gaps(&gaps, 106.0);
        assert_eq!(balanced, gaps, "already-sufficient gaps are untouched");
        let (single, iters) = balance_gaps(&[50.0], 106.0);
        assert_eq!(single, vec![50.0]);
        assert_eq!(iters, 0);
    }

    #[test]
    fn insufficient_parallel_code_cannot_fully_prefetch() {
        // Three segments but only 30 cycles of parallel code: even balanced, gaps stay below
        // delta and the prefetched fraction stays below 1.
        let gaps = vec![2.0, 3.0, 25.0];
        let (balanced, _) = balance_gaps(&gaps, 106.0);
        assert!(balanced.iter().all(|g| *g < 106.0));
        assert!((balanced.iter().sum::<f64>() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn schedule_prefetching_sets_fractions() {
        let mut segments = vec![seg(0, 10.0), seg(1, 12.0), seg(2, 8.0)];
        let config = HelixConfig::default();
        let schedule = schedule_prefetching(&mut segments, 2000.0, &config);
        assert_eq!(schedule.prefetched_fractions.len(), 3);
        // Plenty of parallel code: everything is (close to) fully prefetched after balancing.
        assert!(segments.iter().all(|s| s.prefetched_fraction > 0.9));
        // Without balancing, the skewed initial distribution leaves some segment poorly
        // prefetched.
        let mut segments2 = vec![seg(0, 10.0), seg(1, 12.0), seg(2, 8.0)];
        let cfg2 = HelixConfig::default().without_prefetch_balancing();
        schedule_prefetching(&mut segments2, 2000.0, &cfg2);
        let min_unbalanced = segments2
            .iter()
            .map(|s| s.prefetched_fraction)
            .fold(f64::INFINITY, f64::min);
        let min_balanced = segments
            .iter()
            .map(|s| s.prefetched_fraction)
            .fold(f64::INFINITY, f64::min);
        assert!(min_balanced >= min_unbalanced);
    }

    #[test]
    fn disabled_helper_threads_disable_prefetching() {
        let mut segments = vec![seg(0, 10.0), seg(1, 12.0)];
        let cfg = HelixConfig::default().without_helper_threads();
        let schedule = schedule_prefetching(&mut segments, 1000.0, &cfg);
        assert!(segments.iter().all(|s| s.prefetched_fraction == 0.0));
        assert!(schedule.prefetched_fractions.is_empty());
    }

    #[test]
    fn unsynchronized_segments_are_ignored() {
        let mut segments = vec![seg(0, 10.0), seg(1, 12.0)];
        segments[1].synchronized = false;
        let schedule = schedule_prefetching(&mut segments, 1000.0, &HelixConfig::default());
        assert_eq!(schedule.prefetched_fractions.len(), 1);
        assert_eq!(segments[1].prefetched_fraction, 0.0);
    }

    #[test]
    fn loop_without_segments_yields_empty_schedule() {
        let mut segments: Vec<SequentialSegment> = Vec::new();
        let schedule = schedule_prefetching(&mut segments, 1000.0, &HelixConfig::default());
        assert_eq!(schedule, PrefetchSchedule::default());
        let lid = LoopId(0);
        let _ = (lid, FuncId::new(0));
    }
}

//! The PFC-pausable delay queue (§3.2 "Implementing delay" and Figure 14's
//! "Delay Queue" series), as a discrete-event simulation.
//!
//! Events to delay are parked in a dedicated egress queue on the
//! recirculation port. The queue is paused almost always; a stream of PFC
//! (Priority Flow Control) frame *pairs*, emitted by the packet generator
//! at a fixed interval, briefly unpauses it — the first frame of a pair
//! opens the queue, the second re-pauses it. Each release, queued event
//! packets drain at line rate, have their delay parameter decremented by
//! their measured queue time, and recirculate back into the queue until the
//! delay reaches zero.
//!
//! Compared with continuous recirculation this trades:
//! * **bandwidth** — each event crosses the port once per release interval
//!   instead of once per ~600 ns loop (a ~20× reduction in the paper), for
//! * **buffer** — parked packets occupy packet buffer (~7 KB for 90 events,
//!   §7.2), and
//! * **timing accuracy** — execution quantizes to the release grid.

use crate::recirc::{RecircPort, WIRE_OVERHEAD_BYTES};

/// Configuration of the pausable delay queue.
#[derive(Debug, Clone)]
pub struct DelayQueue {
    pub port: RecircPort,
    /// Interval between PFC unpause events, ns. The paper quotes releases
    /// "e.g., once every 100 µs"; the measured deployment in Fig 14 drains
    /// more often.
    pub release_interval_ns: u64,
    /// Size of each PFC frame (pause frames are minimum-size Ethernet).
    pub pfc_frame_bytes: u64,
    /// Bytes of packet buffer used per parked event (cell-granular).
    pub buffer_cell_bytes: u64,
}

impl Default for DelayQueue {
    fn default() -> Self {
        DelayQueue {
            port: RecircPort::default(),
            release_interval_ns: 10_000,
            pfc_frame_bytes: 64,
            buffer_cell_bytes: 80,
        }
    }
}

/// Result of delaying a batch of events through the pausable queue.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayQueueReport {
    /// Bandwidth consumed on the recirculation port (event passes + the PFC
    /// stream), bits/second.
    pub bandwidth_bps: f64,
    pub utilization: f64,
    pub mean_error_ns: f64,
    pub max_error_ns: f64,
    pub mean_relative_error: f64,
    /// Peak packet-buffer bytes used by parked events.
    pub buffer_bytes: u64,
    /// Total recirculation passes taken by all events.
    pub total_passes: u64,
}

impl DelayQueue {
    /// Simulate delaying one 64 B event per entry of `delays_ns`,
    /// all submitted at t = 0, until every event has executed.
    ///
    /// Events drain at line rate during each unpause window. An event whose
    /// remaining delay would expire before the *next* release leaves the
    /// loop at that release (its delay parameter is updated from queue
    /// time, so it never executes early); otherwise it re-enters the queue.
    pub fn delay_events(&self, pkt_bytes: u64, delays_ns: &[u64]) -> DelayQueueReport {
        let n = delays_ns.len();
        if n == 0 {
            return DelayQueueReport {
                bandwidth_bps: self.pfc_bandwidth_bps(),
                utilization: self.pfc_bandwidth_bps() / self.port.rate_bps as f64,
                mean_error_ns: 0.0,
                max_error_ns: 0.0,
                mean_relative_error: 0.0,
                buffer_bytes: 0,
                total_passes: 0,
            };
        }
        let ser = self.port.serialization_ns(pkt_bytes);
        // Remaining delay per event.
        let mut remaining: Vec<f64> = delays_ns.iter().map(|&d| d as f64).collect();
        let mut done: Vec<Option<f64>> = vec![None; n]; // execution time
        let mut passes: u64 = 0;
        let interval = self.release_interval_ns as f64;

        let mut releases = 0u64;
        while done.iter().any(Option::is_none) {
            releases += 1;
            let t = releases as f64 * interval;
            // Drain every parked event once, at line rate, in queue order.
            let mut drain_offset = 0.0;
            for i in 0..n {
                if done[i].is_some() {
                    continue;
                }
                let exit_time = t + drain_offset;
                drain_offset += ser;
                passes += 1;
                // Egress updates the delay parameter from queue time.
                remaining[i] = delays_ns[i] as f64 - exit_time;
                if remaining[i] <= interval * 0.5 {
                    // Close enough that waiting another full interval would
                    // overshoot more: execute on this pass. (The hardware
                    // check is `delay == 0` after saturating subtraction;
                    // rounding to the nearer release reproduces the ±half-
                    // interval error the paper reports.)
                    if remaining[i] <= 0.0 {
                        done[i] = Some(exit_time);
                    } else {
                        // Recirculates once more and executes next release.
                        done[i] = Some(exit_time + interval);
                        passes += 1;
                    }
                }
            }
        }

        let span_ns = done
            .iter()
            .map(|d| d.expect("all executed"))
            .fold(0.0f64, f64::max)
            .max(interval);
        let event_bits = (passes * (pkt_bytes + WIRE_OVERHEAD_BYTES) * 8) as f64;
        let bandwidth = event_bits / (span_ns * 1e-9) + self.pfc_bandwidth_bps();

        let mut total_err = 0.0;
        let mut max_err = 0.0f64;
        let mut total_rel = 0.0;
        for (i, d) in done.iter().enumerate() {
            let err = (d.expect("executed") - delays_ns[i] as f64).abs();
            total_err += err;
            max_err = max_err.max(err);
            if delays_ns[i] > 0 {
                total_rel += err / delays_ns[i] as f64;
            }
        }
        DelayQueueReport {
            bandwidth_bps: bandwidth,
            utilization: bandwidth / self.port.rate_bps as f64,
            mean_error_ns: total_err / n as f64,
            max_error_ns: max_err,
            mean_relative_error: total_rel / n as f64,
            buffer_bytes: n as u64 * self.buffer_cell_bytes,
            total_passes: passes,
        }
    }

    /// Steady-state bandwidth of delaying `n` events **indefinitely** (the
    /// paper's "delaying 90 concurrent events indefinitely was 5.5 Gb/s"):
    /// every event crosses the port exactly once per release interval.
    pub fn steady_state_bandwidth_bps(&self, pkt_bytes: u64, n: usize) -> f64 {
        let per_interval_bits = (n as u64 * (pkt_bytes + WIRE_OVERHEAD_BYTES) * 8) as f64;
        per_interval_bits / (self.release_interval_ns as f64 * 1e-9) + self.pfc_bandwidth_bps()
    }

    /// Bandwidth of the PFC pause/unpause frame pairs themselves.
    fn pfc_bandwidth_bps(&self) -> f64 {
        let bits = (2 * (self.pfc_frame_bytes + WIRE_OVERHEAD_BYTES) * 8) as f64;
        bits / (self.release_interval_ns as f64 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ninety_events_cost_single_digit_gbps() {
        // Fig 14 headline: 90 events indefinitely ≈ 5.5 Gb/s vs >95 Gb/s
        // for the baseline — a ~20x reduction.
        let q = DelayQueue::default();
        let bw = q.steady_state_bandwidth_bps(64, 90);
        assert!(bw > 3e9 && bw < 8e9, "got {} Gb/s", bw / 1e9);
        let baseline = RecircPort::default().delay_baseline(64, &vec![1_000_000; 90]);
        let reduction = baseline.bandwidth_bps / bw;
        assert!(reduction > 10.0, "only {reduction}x reduction");
    }

    #[test]
    fn buffer_usage_matches_paper_scale() {
        // §7.2: "storing 90 64B events in a queue uses around 7KB".
        let q = DelayQueue::default();
        let r = q.delay_events(64, &vec![1_000_000; 90]);
        assert!(
            r.buffer_bytes >= 5_000 && r.buffer_bytes <= 9_000,
            "{}",
            r.buffer_bytes
        );
    }

    #[test]
    fn timing_error_bounded_by_release_interval() {
        let q = DelayQueue::default();
        let delays: Vec<u64> = (0..50).map(|i| 200_000 + i * 13_337).collect();
        let r = q.delay_events(64, &delays);
        assert!(
            r.max_error_ns <= q.release_interval_ns as f64 + 1.0,
            "max error {} ns exceeds interval",
            r.max_error_ns
        );
        assert!(r.mean_error_ns > 0.0, "quantization must cost something");
    }

    #[test]
    fn delay_queue_error_exceeds_baseline_error() {
        // Fig 14 right panel: the pausable queue trades accuracy for
        // bandwidth.
        let delays: Vec<u64> = (0..50).map(|i| 300_000 + i * 7_001).collect();
        let q = DelayQueue::default();
        let dq = q.delay_events(64, &delays);
        let base = RecircPort::default().delay_baseline(64, &delays);
        assert!(
            dq.mean_relative_error > base.mean_relative_error,
            "dq {} <= baseline {}",
            dq.mean_relative_error,
            base.mean_relative_error
        );
    }

    #[test]
    fn pfc_stream_alone_is_cheap() {
        let q = DelayQueue::default();
        assert!(q.pfc_bandwidth_bps() < 0.2e9, "{}", q.pfc_bandwidth_bps());
    }

    #[test]
    fn longer_interval_lowers_bandwidth_raises_error() {
        let short = DelayQueue {
            release_interval_ns: 10_000,
            ..DelayQueue::default()
        };
        let long = DelayQueue {
            release_interval_ns: 100_000,
            ..DelayQueue::default()
        };
        let delays: Vec<u64> = (0..40).map(|i| 500_000 + i * 11_003).collect();
        let rs = short.delay_events(64, &delays);
        let rl = long.delay_events(64, &delays);
        assert!(rl.bandwidth_bps < rs.bandwidth_bps);
        assert!(rl.max_error_ns > rs.max_error_ns);
    }

    #[test]
    fn all_events_execute_at_or_after_release_grid() {
        let q = DelayQueue::default();
        let r = q.delay_events(64, &[123_456, 999_999, 1]);
        assert!(r.total_passes >= 3);
    }
}

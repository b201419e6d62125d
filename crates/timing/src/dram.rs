//! The shared, bandwidth-limited DRAM channel.
//!
//! All cores feed one channel. A request occupies the bus for the line's
//! transmission time `s = freq * L / B` (Equation 22's service time) and
//! then pays the fixed DRAM access latency. Under bursts the serialization
//! on the bus is what produces the queueing delays the model's M/D/1 stage
//! (Section IV-B2) approximates.
//!
//! Because the oracle computes completion times at issue, requests can be
//! *scheduled* with arrival times in the future (e.g. a miss waiting for an
//! MSHR entry). A scalar first-come-first-served `free_at` would let such a
//! future request delay every later-issued but earlier-arriving request, so
//! the channel books capacity in fixed time windows instead: each
//! [`WINDOW_CYCLES`]-cycle window holds `WINDOW_CYCLES / s` requests, and a
//! request starts in the first window at-or-after its arrival with spare
//! capacity. This is bandwidth-exact and insensitive to issue order.
//!
//! Writes occupy a bounded queue until their bus service ends, and a full
//! queue back-pressures store issue. [`DramChannel::write_admission_time`]
//! answers with the cycle the queue *actually* drops below its limit, which
//! lets a blocked core sleep over the whole drain: finish times are fixed at
//! booking, and while the queue is full nobody is admitted, so nothing is
//! enqueued before that cycle and the answer cannot move.

use std::collections::VecDeque;

use gpumech_isa::SimConfig;

/// Size of a capacity-booking window in cycles.
pub const WINDOW_CYCLES: u64 = 32;

/// Maximum outstanding write requests before the memory pipeline
/// back-pressures store issue — real memory controllers buffer a bounded
/// number of writes and stall the LSU beyond it, which is what throttles
/// write-flood kernels at the core instead of letting an unbounded queue
/// starve later reads.
pub const WRITE_QUEUE_LIMIT: usize = 128;

/// Bandwidth-limited DRAM channel with windowed capacity booking.
#[derive(Debug, Clone)]
pub struct DramChannel {
    service: f64,
    access_latency: u64,
    /// `(window index, booked bus-service cycles)` of the live windows in
    /// ascending order: a handful around the clock plus whatever MSHR
    /// reservations have booked ahead, so a sorted ring stands in for a map.
    booked: VecDeque<(u64, f64)>,
    requests: u64,
    busy_time: f64,
    /// Bus-service completion times of outstanding writes, ascending.
    write_finish: VecDeque<u64>,
}

impl DramChannel {
    /// Builds the channel from the machine configuration.
    ///
    /// The service time is clamped to one booking window; a validated
    /// configuration ([`SimConfig::validate`] bounds
    /// `dram_service_cycles()` by `MAX_DRAM_SERVICE_CYCLES`) is never
    /// clamped, but the guard keeps `DramChannel::book`'s capacity search
    /// terminating even on unvalidated inputs.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        let service = cfg.dram_service_cycles();
        let service = if service.is_finite() && service > 0.0 {
            service.min(WINDOW_CYCLES as f64)
        } else {
            1.0
        };
        Self {
            service,
            access_latency: cfg.dram_latency,
            booked: VecDeque::new(),
            requests: 0,
            busy_time: 0.0,
            write_finish: VecDeque::new(),
        }
    }

    /// Books one line transfer arriving at `arrival` (issued at simulation
    /// time `now`); returns the cycle the bus finishes transmitting it (no
    /// access latency).
    ///
    /// Pruning is anchored to `now`, never to `arrival`: future bookings
    /// must not evict still-booked future windows, or their capacity would
    /// be handed out twice.
    fn book(&mut self, now: u64, arrival: u64) -> f64 {
        let cur = now / WINDOW_CYCLES;
        while self.booked.front().is_some_and(|&(w, _)| w + 2 < cur) {
            self.booked.pop_front();
        }
        let mut wi = arrival.max(now) / WINDOW_CYCLES;
        let mut at = self.booked.partition_point(|&(w, _)| w < wi);
        loop {
            if self.booked.get(at).is_none_or(|&(w, _)| w != wi) {
                self.booked.insert(at, (wi, 0.0));
            }
            let used = &mut self.booked[at].1;
            if *used + self.service <= WINDOW_CYCLES as f64 {
                let start = (arrival as f64).max(wi as f64 * WINDOW_CYCLES as f64 + *used);
                *used += self.service;
                self.requests += 1;
                self.busy_time += self.service;
                return start + self.service;
            }
            wi += 1;
            at += 1;
        }
    }

    /// Enqueues one read request issued at `now`, arriving at the memory
    /// controller at `arrival`; returns the cycle its data is available
    /// (bus serialization + access latency).
    pub fn request(&mut self, now: u64, arrival: u64) -> u64 {
        let bus_done = self.book(now, arrival);
        (bus_done.ceil() as u64) + self.access_latency
    }

    /// Enqueues a write request: consumes bus capacity but the caller does
    /// not wait for completion (write-through stores are fire-and-forget).
    /// The write occupies a bounded queue slot until its bus service
    /// finishes.
    pub fn request_write(&mut self, now: u64, arrival: u64) {
        let finish = self.book(now, arrival).ceil() as u64;
        // Stores issue in time order, so a finish almost always belongs at
        // the back; the search keeps the queue ordered for any caller.
        let at = self.write_finish.partition_point(|&t| t <= finish);
        self.write_finish.insert(at, finish);
    }

    /// First cycle at which a store may issue without overflowing the
    /// bounded write queue (`now` itself when there is room). When the
    /// queue is full this is the cycle enough writes have finished for it
    /// to hold fewer than [`WRITE_QUEUE_LIMIT`] — exact, not a bound, as
    /// long as nothing is enqueued in between, and a full queue admits
    /// nobody.
    pub fn write_admission_time(&mut self, now: u64) -> u64 {
        while self.write_finish.front().is_some_and(|&t| t <= now) {
            self.write_finish.pop_front();
        }
        match self.write_finish.len().checked_sub(WRITE_QUEUE_LIMIT) {
            None => now,
            Some(excess) => self.write_finish[excess],
        }
    }

    /// Total requests served.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Aggregate bus-busy cycles (for utilization reporting).
    #[must_use]
    pub fn busy_time(&self) -> f64 {
        self.busy_time
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn channel(bw_gbps: f64) -> DramChannel {
        DramChannel::new(&SimConfig::default().with_dram_bandwidth(bw_gbps))
    }

    #[test]
    fn idle_channel_gives_pure_latency() {
        let mut d = channel(64.0); // s = 2 cycles
        let done = d.request(0, 100);
        assert_eq!(done, 100 + 2 + 300);
    }

    #[test]
    fn back_to_back_requests_serialize_on_the_bus() {
        let mut d = channel(64.0); // s = 2 cycles
        let d0 = d.request(0, 0);
        let d1 = d.request(0, 0);
        let d2 = d.request(0, 0);
        assert_eq!(d0, 302);
        assert_eq!(d1, 304, "second request waits one service time");
        assert_eq!(d2, 306);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut d = channel(64.0);
        let d0 = d.request(0, 0);
        let d1 = d.request(0, 1000);
        assert_eq!(d1 - 1000, d0, "no queueing when the bus is idle");
    }

    #[test]
    fn out_of_order_arrivals_do_not_block_earlier_windows() {
        let mut d = channel(64.0); // s = 2
        // A far-future request must not consume near-term capacity.
        let far = d.request(0, 10_000);
        let near = d.request(0, 0);
        assert_eq!(near, 302, "near request unaffected by future booking");
        assert_eq!(far, 10_302);
    }

    #[test]
    fn window_capacity_spills_into_the_next_window() {
        let mut d = channel(64.0); // s = 2 → 16 requests per 32-cycle window
        let mut last = 0;
        for _ in 0..20 {
            last = d.request(0, 0);
        }
        // 16 fit in window [0,32), the rest start in window [32,64).
        assert!(last >= 300 + 32, "overflow requests spill: {last}");
        assert_eq!(d.requests(), 20);
    }

    #[test]
    fn higher_bandwidth_shrinks_serialization() {
        let mut slow = channel(64.0);
        let mut fast = channel(256.0);
        let n = 100;
        let slow_last = (0..n).map(|_| slow.request(0, 0)).last().unwrap();
        let fast_last = (0..n).map(|_| fast.request(0, 0)).last().unwrap();
        assert!(slow_last > fast_last, "64 GB/s must queue longer than 256 GB/s");
        assert_eq!(slow.requests(), n);
    }

    #[test]
    fn fractional_service_accumulates() {
        // Table I: s = 2/3 cycle. Three requests = 2 cycles of bus time.
        let mut d = channel(192.0);
        let _ = d.request(0, 0);
        let _ = d.request(0, 0);
        let d2 = d.request(0, 0);
        assert_eq!(d2, 2 + 300);
        assert!((d.busy_time() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn write_backpressure_admits_until_the_limit() {
        let mut d = channel(192.0);
        for _ in 0..WRITE_QUEUE_LIMIT {
            assert_eq!(d.write_admission_time(0), 0);
            d.request_write(0, 0);
        }
        // Queue full: admission defers to the earliest write completion.
        let admit = d.write_admission_time(0);
        assert!(admit > 0, "full write queue must defer stores");
        // After enough time passes, the queue drains and admits again.
        let later = admit + 1000;
        assert_eq!(d.write_admission_time(later), later);
    }

    #[test]
    fn full_write_queue_admits_when_it_has_drained_below_the_limit() {
        let mut d = channel(64.0); // s = 2: write k leaves the bus at 2(k+1)
        for _ in 0..WRITE_QUEUE_LIMIT + 9 {
            d.request_write(0, 0);
        }
        // Ten writes too many: the tenth finish makes room, not the first.
        assert_eq!(d.write_admission_time(0), 20);
        assert_eq!(d.write_admission_time(19), 20);
        assert_eq!(d.write_admission_time(20), 20);
        // Out-of-order finishes are queued in order.
        d.request_write(20, 10_000);
        d.request_write(20, 5_000);
        assert_eq!(d.write_finish.back(), Some(&10_002));
        assert_eq!(d.write_admission_time(21), 24, "two more writes, two more finishes");
    }

    #[test]
    fn sparse_writes_never_backpressure() {
        let mut d = channel(192.0);
        for t in (0..10_000).step_by(100) {
            assert_eq!(d.write_admission_time(t), t);
            d.request_write(t, t);
        }
    }
}

//! Randomized property tests on the network models: work conservation,
//! monotonicity, and byte conservation. Cases come from the in-tree
//! [`gsim_rng`] PRNG, 64 per property.

use gsim_rng::Rng64;
use gsim_sim::noc::{BandwidthLink, ChipletInterconnect, Crossbar};

const CASES: usize = 64;

fn f64_in(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// A transfer never completes before its submission plus its own
/// serialisation time, and link state advances monotonically.
#[test]
fn link_completions_are_monotone_and_causal() {
    let mut rng = Rng64::seed_from_u64(0x0c_0001);
    for _ in 0..CASES {
        let bw = f64_in(&mut rng, 1.0, 4096.0);
        let n = rng.gen_range(1, 50);
        let submissions: Vec<(f64, u32)> = (0..n)
            .map(|_| {
                (
                    f64_in(&mut rng, 0.0, 10_000.0),
                    rng.gen_range(1, 4096) as u32,
                )
            })
            .collect();
        let mut link = BandwidthLink::new(bw);
        let mut last_done = 0.0f64;
        let mut total_bytes = 0u64;
        for &(now, bytes) in &submissions {
            let done = link.transfer(now, bytes);
            assert!(done >= now + f64::from(bytes) / bw - 1e-9);
            assert!(done >= last_done, "the channel serialises");
            last_done = done;
            total_bytes += u64::from(bytes);
        }
        assert_eq!(link.stats().bytes, total_bytes);
        assert_eq!(link.stats().transfers, submissions.len() as u64);
    }
}

/// Crossbar traversals cost at least the hop latency and respect the
/// bisection bandwidth in aggregate.
#[test]
fn crossbar_respects_bandwidth_ceiling() {
    let mut rng = Rng64::seed_from_u64(0x0c_0002);
    for _ in 0..CASES {
        let bw = f64_in(&mut rng, 32.0, 1024.0);
        let n = rng.gen_range(1, 200);
        let mut x = Crossbar::new(bw, 10);
        let mut last = 0.0f64;
        for _ in 0..n {
            last = x.traverse(0.0, 128);
        }
        // n transfers of 128 B cannot finish faster than n*128/bw.
        assert!(last >= (n as f64) * 128.0 / bw + 10.0 - 1e-6);
        assert!(x.utilization(last) <= 1.0);
    }
}

/// Chiplet transfers conserve bytes and local traffic is free.
#[test]
fn chiplet_byte_conservation() {
    let mut rng = Rng64::seed_from_u64(0x0c_0004);
    for _ in 0..CASES {
        let n_chiplets = rng.gen_range(1, 8) as u32;
        let n_msgs = rng.gen_range(0, 40);
        let msgs: Vec<(u32, u32, u32)> = (0..n_msgs)
            .map(|_| {
                (
                    rng.gen_range(0, 8) as u32,
                    rng.gen_range(0, 8) as u32,
                    rng.gen_range(1, 2048) as u32,
                )
            })
            .collect();
        let mut icn = ChipletInterconnect::new(n_chiplets, 128.0, 30);
        let mut remote_bytes = 0u64;
        for &(s, d, b) in &msgs {
            let (s, d) = (s % n_chiplets, d % n_chiplets);
            let t = icn.traverse(0.0, s, d, b);
            if s == d {
                assert_eq!(t, 0.0);
            } else {
                remote_bytes += u64::from(b);
                assert!(t >= 30.0);
            }
        }
        assert_eq!(icn.total_bytes(), remote_bytes);
    }
}

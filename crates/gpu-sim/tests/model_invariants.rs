//! Randomized tests on the cost model: the invariants every scheme's
//! accounting relies on.
//!
//! Formerly proptest-based; now seeded via the vendored `tlc-rng` so
//! the suite runs fully offline.

use tlc_gpu_sim::memory::{for_each_warp_segment, segments_for_gather};
use tlc_gpu_sim::{Device, DeviceParams, KernelConfig, SEGMENT_BYTES, WARP_SIZE};
use tlc_rng::Rng;

/// Coalesced reads of a byte range touch at least ceil(bytes/128)
/// segments and at most one more (edge misalignment).
#[test]
fn range_segment_bounds() {
    let mut rng = Rng::seed_from_u64(0x51B_0001);
    let dev = Device::v100();
    let buf = dev.alloc_zeroed::<u8>(32_768);
    for _ in 0..128 {
        let start = rng.gen_range(0usize..10_000);
        let len = rng.gen_range(1usize..5_000);
        let report = dev.launch(KernelConfig::new("k", 1, 128), |ctx| {
            let _ = ctx.read_coalesced(&buf, start % 16_000, len);
        });
        let segs = report.traffic.global_read_segments;
        let ideal = (len as u64).div_ceil(128);
        assert!(segs >= ideal);
        assert!(segs <= ideal + 1);
    }
}

/// A gather over a subset of indices never costs more than the full
/// gather.
#[test]
fn gather_subset_monotone() {
    let mut rng = Rng::seed_from_u64(0x51B_0002);
    let dev = Device::v100();
    let buf = dev.alloc_zeroed::<u32>(4_096);
    for _ in 0..128 {
        let n = rng.gen_range(1usize..32);
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..4_096)).collect();
        let full = dev
            .launch(KernelConfig::new("full", 1, 32), |ctx| {
                let _ = ctx.warp_gather(&buf, &indices);
            })
            .traffic
            .global_read_segments;
        let half = dev
            .launch(KernelConfig::new("half", 1, 32), |ctx| {
                let _ = ctx.warp_gather(&buf, &indices[..indices.len() / 2 + 1]);
            })
            .traffic
            .global_read_segments;
        assert!(half <= full);
    }
}

/// Kernel time is monotone in traffic: more bytes never run faster.
#[test]
fn time_monotone_in_traffic() {
    let mut rng = Rng::seed_from_u64(0x51B_0003);
    let dev = Device::v100();
    let buf = dev.alloc_zeroed::<u32>(1 << 16);
    let time = |n: usize| {
        dev.reset_timeline();
        dev.launch(KernelConfig::new("k", 64, 128), |ctx| {
            for r in 0..n {
                let _ = ctx.read_coalesced(&buf, (r * 128) % 32_768, 128);
            }
        });
        dev.elapsed_seconds()
    };
    for _ in 0..32 {
        let reads = rng.gen_range(1usize..64);
        assert!(time(reads + 1) >= time(reads));
    }
}

/// Scaled time is linear in the factor (minus the fixed launch
/// overhead).
#[test]
fn scaling_linearity() {
    let mut rng = Rng::seed_from_u64(0x51B_0004);
    let dev = Device::v100();
    let buf = dev.alloc_zeroed::<u32>(1 << 16);
    for _ in 0..64 {
        let factor = rng.gen_range(2.0f64..64.0);
        dev.reset_timeline();
        dev.launch(KernelConfig::new("k", 64, 128), |ctx| {
            let _ = ctx.read_coalesced(&buf, 0, 1 << 15);
        });
        let launch = dev.params().kernel_launch_s;
        let t1 = dev.elapsed_seconds_scaled(1.0);
        let tf = dev.elapsed_seconds_scaled(factor);
        let expected = launch + (t1 - launch) * factor;
        assert!((tf - expected).abs() < 1e-12);
    }
}

/// Occupancy never increases when shared memory per block grows.
#[test]
fn occupancy_monotone_in_smem() {
    let mut rng = Rng::seed_from_u64(0x51B_0005);
    let dev = Device::v100();
    let occ = |s: usize| {
        dev.occupancy(&KernelConfig::new("k", 1, 128).smem_per_block(s))
            .fraction
    };
    for _ in 0..256 {
        let smem = rng.gen_range(0usize..96 * 1024);
        assert!(occ(smem) >= occ(smem + 4096));
    }
}

#[test]
fn device_params_are_v100_shaped() {
    let p = DeviceParams::v100();
    assert_eq!(p.num_sms, 80);
    assert!(
        p.shared_bw > 5.0 * p.global_bw,
        "shared must be ~an order faster"
    );
    assert!(
        p.pcie_bw < p.global_bw / 10.0,
        "PCIe is the slow interconnect"
    );
}

#[test]
fn timeline_survives_mixed_events() {
    let dev = Device::v100();
    let buf = dev.alloc_zeroed::<u32>(1024);
    dev.launch(KernelConfig::new("a", 1, 128), |ctx| {
        let _ = ctx.read_coalesced(&buf, 0, 1024);
    });
    dev.pcie_transfer(1 << 20);
    dev.launch(KernelConfig::new("b", 1, 128), |_| {});
    dev.with_timeline(|t| {
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.kernel_launches(), 2);
        assert!(t.total_seconds() > 0.0);
    });
    dev.reset_timeline();
    dev.with_timeline(|t| assert!(t.events().is_empty()));
}

#[test]
fn l1_model_dedupes_repeated_block_reads() {
    let mut params = DeviceParams::v100();
    params.l1_per_block = true;
    let cached = Device::with_params(params);
    let uncached = Device::v100();
    let run = |dev: &Device| {
        let buf = dev.alloc_zeroed::<u32>(1024);
        dev.launch(KernelConfig::new("k", 1, 128), |ctx| {
            for _ in 0..8 {
                let _ = ctx.read_coalesced(&buf, 0, 128); // same 512 B
            }
        })
        .traffic
        .global_read_segments
    };
    assert_eq!(run(&uncached), 8 * 4);
    assert_eq!(run(&cached), 4);
}

#[test]
fn l1_does_not_cache_across_blocks() {
    let mut params = DeviceParams::v100();
    params.l1_per_block = true;
    let dev = Device::with_params(params);
    let buf = dev.alloc_zeroed::<u32>(1024);
    let report = dev.launch(KernelConfig::new("k", 4, 128), |ctx| {
        let _ = ctx.read_coalesced(&buf, 0, 128);
    });
    // Each of the 4 blocks re-fetches the 4 segments.
    assert_eq!(report.traffic.global_read_segments, 16);
}

/// Naive coalescing reference: the sorted, deduplicated segments of
/// every lane's first and (for a non-zero width) last byte.
fn reference_segments(addrs: &[u64], width: u64) -> Vec<u64> {
    let mut segs = Vec::new();
    for &a in addrs {
        segs.push(a / SEGMENT_BYTES);
        if width > 0 {
            segs.push((a + width - 1) / SEGMENT_BYTES);
        }
    }
    segs.sort_unstable();
    segs.dedup();
    segs
}

/// One warp's worth of addresses in each shape the counter special-
/// cases or could get wrong.
fn address_sets(rng: &mut Rng, len: usize) -> Vec<Vec<u64>> {
    let base = 4096 + rng.gen_range(0u64..1 << 20);
    let random = |rng: &mut Rng, span: u64| -> Vec<u64> {
        (0..len).map(|_| base + rng.gen_range(0..span)).collect()
    };
    let narrow = random(rng, 512);
    let wide = random(rng, 1 << 24);
    let mut sorted = random(rng, 8192);
    sorted.sort_unstable();
    let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
    let equal = vec![base; len];
    // Within a few bytes of a segment boundary, so wide lanes straddle.
    let straddling: Vec<u64> = (0..len)
        .map(|_| {
            let boundary = (base / SEGMENT_BYTES + rng.gen_range(1u64..64)) * SEGMENT_BYTES;
            boundary - rng.gen_range(1u64..17)
        })
        .collect();
    let contiguous: Vec<u64> = (0..len as u64).map(|i| base + 4 * i).collect();
    vec![
        narrow, wide, sorted, reversed, equal, straddling, contiguous,
    ]
}

/// The allocation-free segment counter agrees with the naive
/// sort + dedup reference on every shape, length and width, and visits
/// each distinct segment exactly once.
#[test]
fn warp_segment_counter_matches_sort_dedup_reference() {
    let mut rng = Rng::seed_from_u64(0x51B_0010);
    for round in 0..64 {
        for len in 0..=WARP_SIZE {
            for addrs in address_sets(&mut rng, len) {
                for width in [0u64, 1, 4, 8, 16, 129, 300] {
                    let want = reference_segments(&addrs, width);
                    assert_eq!(
                        segments_for_gather(&addrs, width),
                        want.len() as u64,
                        "round {round}, len {len}, width {width}: {addrs:?}"
                    );
                    let mut seen = Vec::new();
                    for_each_warp_segment(&addrs, width, |seg| seen.push(seg));
                    seen.sort_unstable();
                    assert_eq!(seen, want, "width {width}: {addrs:?}");
                }
            }
        }
    }
}

/// Through the L1 model, a warp gather fetches exactly the reference's
/// segments once; repeating it in the same block fetches nothing.
#[test]
fn l1_gather_fetches_each_reference_segment_once() {
    let mut rng = Rng::seed_from_u64(0x51B_0011);
    let dev = Device::with_params(DeviceParams {
        l1_per_block: true,
        ..DeviceParams::v100()
    });
    let buf = dev.alloc_zeroed::<u64>(1 << 16);
    for _ in 0..128 {
        let n = rng.gen_range(1usize..=WARP_SIZE);
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..1 << 16)).collect();
        let addrs: Vec<u64> = indices.iter().map(|&i| buf.addr_of(i)).collect();
        let want = reference_segments(&addrs, 8).len() as u64;
        let report = dev.launch(KernelConfig::new("l1", 1, 32), |ctx| {
            let _ = ctx.warp_gather(&buf, &indices);
            let _ = ctx.warp_gather(&buf, &indices);
        });
        assert_eq!(report.traffic.global_read_segments, want);
    }
}

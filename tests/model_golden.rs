//! Golden oracle for the simulator's *modelled* output.
//!
//! `determinism` only compares 1 worker against N, so an accounting
//! change that is wrong the same way on both sides would pass it. This
//! test pins the absolute modelled numbers instead: every
//! [`KernelReport`] of all 13 SSB queries over a small chunked store
//! (name, grid, occupancy, traffic, per-phase spans and counters,
//! `seconds` bit-for-bit, bound), the query answers, and the device
//! allocation cursor after each run — plus one decode of each GPU-*
//! scheme, the base algorithm and a random-access gather. The constant
//! was computed before the host-cost work on the simulator's accounting
//! paths; any change to a modelled number must update it deliberately.

use tlc::schemes::{base_alg, gpu_for, random_access};
use tlc::schemes::{EncodedColumn, ForDecodeOpts, GpuFor, Scheme};
use tlc::sim::{Device, DeviceParams, KernelReport};
use tlc::ssb::{run_query, LoColumns, QueryId, SsbData, StreamSpec, System};

/// 64-bit FNV-1a: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator so adjacent fields cannot alias.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

fn hash_report(h: &mut Fnv, r: &KernelReport) {
    h.str(&r.name);
    h.u64(r.grid_blocks as u64);
    h.u64(r.threads_per_block as u64);
    h.u64(r.occupancy.to_bits());
    h.str(&format!("{:?}", r.traffic));
    h.str(&format!("{:?}", r.spans));
    h.u64(r.seconds.to_bits());
    h.str(r.bound_by);
}

/// Hash the device's timeline since the last reset, then its
/// allocation cursor (the address the next allocation would get).
fn hash_device(h: &mut Fnv, dev: &Device) {
    dev.with_timeline(|tl| {
        h.u64(tl.events().len() as u64);
        for r in tl.events() {
            hash_report(h, r);
        }
    });
    h.u64(dev.alloc_zeroed::<u8>(1).addr_of(0));
}

/// Dims plus chunk `c` of `spec`: one store partition's worth of rows.
fn partition(spec: &StreamSpec, c: usize) -> SsbData {
    let mut data = spec.dims();
    data.lineorder = spec.chunk(c);
    data
}

fn ssb_digest(h: &mut Fnv) {
    let spec = StreamSpec::for_rows(7, 60_000, 3_750);
    assert_eq!(spec.chunks, 4);
    for c in 0..spec.chunks {
        let data = partition(&spec, c);
        for q in QueryId::ALL {
            for sys in [System::GpuStar, System::None, System::OmniSci] {
                let dev = Device::v100();
                let cols = LoColumns::build(&dev, &data, sys, q.columns());
                dev.reset_timeline();
                let result = run_query(&dev, &data, &cols, q);
                h.str(q.name());
                h.u64(result.len() as u64);
                for (g, v) in result {
                    h.u64(g);
                    h.u64(v);
                }
                hash_device(h, &dev);
            }
        }
    }
    // The per-block L1 model routes gathers through a separate branch.
    let data = partition(&spec, 0);
    for q in [QueryId::Q11, QueryId::Q21, QueryId::Q43] {
        let dev = Device::with_params(DeviceParams {
            l1_per_block: true,
            ..DeviceParams::v100()
        });
        let cols = LoColumns::build(&dev, &data, System::GpuStar, q.columns());
        dev.reset_timeline();
        let result = run_query(&dev, &data, &cols, q);
        h.u64(result.len() as u64);
        hash_device(h, &dev);
    }
}

fn decode_digest(h: &mut Fnv) {
    let values: Vec<i32> = (0..40_000)
        .map(|i| (i / 7) % 300 + 50 + (i % 13) * 3)
        .collect();
    for scheme in [Scheme::GpuFor, Scheme::GpuDFor, Scheme::GpuRFor] {
        for l1 in [false, true] {
            let dev = Device::with_params(DeviceParams {
                l1_per_block: l1,
                ..DeviceParams::v100()
            });
            let dcol = EncodedColumn::encode_as(&values, scheme).to_device(&dev);
            dev.reset_timeline();
            let out = dcol.decompress(&dev).expect("clean column decodes");
            assert_eq!(out.as_slice_unaccounted(), &values[..]);
            let selected: Vec<bool> = (0..values.len()).map(|i| i % 997 == 0).collect();
            random_access::random_access_compressed(&dev, &dcol, &selected).expect("decodes");
            hash_device(h, &dev);
        }
    }
    // The GPU-FOR decode knobs the paper sweeps (D past one warp's
    // worth of block starts included), plus the base algorithm over
    // full-width blocks.
    let mut state = 7u64;
    let uniform: Vec<i32> = (0..1 << 15)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) & 0xFFFF) as i32
        })
        .collect();
    for l1 in [false, true] {
        let dev = Device::with_params(DeviceParams {
            l1_per_block: l1,
            ..DeviceParams::v100()
        });
        let c = GpuFor::encode(&uniform).to_device(&dev);
        dev.reset_timeline();
        for d in [1, 16, 40] {
            gpu_for::decode_only(&dev, &c, ForDecodeOpts::with_d(d)).expect("decodes");
        }
        gpu_for::decode_only(&dev, &c, ForDecodeOpts::opt1()).expect("decodes");
        base_alg::decode_only_base(&dev, &c);
        hash_device(h, &dev);
    }
}

/// Digest of everything the test below hashes, computed before the accounting
/// paths were made allocation-free.
const GOLDEN: u64 = 0x01d5_7e1f_a968_4c2d;

#[test]
fn modelled_output_matches_the_golden_digest() {
    let mut h = Fnv::new();
    ssb_digest(&mut h);
    decode_digest(&mut h);
    assert_eq!(
        h.0, GOLDEN,
        "modelled output changed; if intentional, update the golden digest"
    );
}

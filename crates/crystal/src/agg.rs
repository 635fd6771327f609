//! Aggregation primitives.

use std::collections::BTreeMap;

use tlc_gpu_sim::{BlockCtx, Device, GlobalBuffer, Phase, WARP_SIZE};

/// A single running sum: each thread block reduces its tile locally
/// (shared-memory tree) and issues one atomic to global memory —
/// Crystal's block-wide reduction.
#[derive(Debug)]
pub struct ScalarSum {
    acc: GlobalBuffer<u64>,
}

impl ScalarSum {
    /// Allocate a zeroed accumulator.
    pub fn new(dev: &Device) -> Self {
        ScalarSum {
            acc: dev.alloc_zeroed::<u64>(1),
        }
    }

    /// Block-local reduction of `values` + one global atomic.
    pub fn add_tile(&mut self, ctx: &mut BlockCtx<'_>, values: impl Iterator<Item = u64>) {
        ctx.set_phase(Phase::Aggregate);
        let mut local = 0u64;
        let mut n = 0u64;
        for v in values {
            local = local.wrapping_add(v);
            n += 1;
        }
        ctx.add_int_ops(n + 8); // tree reduction depth on top of the adds
        ctx.smem_traffic(2 * WARP_SIZE as u64 * 8);
        ctx.warp_atomic_add_u64(&mut self.acc, &[(0, local)]);
    }

    /// Final value.
    pub fn value(&self) -> u64 {
        self.acc.as_slice_unaccounted()[0]
    }
}

/// A fixed-domain group-by sum: `sums[group]` accumulated with global
/// atomics (the SSB group-by domains — year × brand, year × nation — are
/// small dense grids, which is how Crystal implements them).
///
/// The dense table lives only in the device's address space: it is
/// [reserved](Device::reserve), every atomic is charged at its group's
/// address, and the host keeps just the groups a tile actually touched.
/// q4.3's 1.75 M-group domain thus costs host memory in proportion to
/// its hits, not its size.
#[derive(Debug)]
pub struct GroupBySum {
    /// Device address of group 0.
    base: u64,
    groups: usize,
    /// Touched groups and their running sums.
    touched: BTreeMap<usize, u64>,
}

impl GroupBySum {
    /// Reserve `groups` zeroed slots.
    pub fn new(dev: &Device, groups: usize) -> Self {
        GroupBySum {
            base: dev.reserve::<u64>(groups),
            groups,
            touched: BTreeMap::new(),
        }
    }

    /// Accumulate `(group, value)` pairs from one tile. Pairs are
    /// applied warp-wise; colliding groups within a warp coalesce into
    /// the same transaction, as on hardware.
    pub fn add_tile(&mut self, ctx: &mut BlockCtx<'_>, pairs: &[(usize, u64)]) {
        ctx.set_phase(Phase::Aggregate);
        for chunk in pairs.chunks(WARP_SIZE) {
            let mut addrs = [0u64; WARP_SIZE];
            for (a, &(g, _)) in addrs.iter_mut().zip(chunk) {
                assert!(g < self.groups, "group {g} outside {} groups", self.groups);
                *a = self.base + g as u64 * 8;
            }
            ctx.charge_atomic(&addrs[..chunk.len()], 8);
            for &(g, v) in chunk {
                let sum = self.touched.entry(g).or_insert(0);
                *sum = sum.wrapping_add(v);
            }
        }
        ctx.add_int_ops(pairs.len() as u64 * 2);
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups
    }

    /// True when the table has no groups.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// Final values as a dense vector, one entry per group.
    pub fn values(&self) -> Vec<u64> {
        let mut dense = vec![0u64; self.groups];
        for (&g, &v) in &self.touched {
            dense[g] = v;
        }
        dense
    }

    /// Non-zero groups as `(group, sum)` pairs, sorted by group.
    pub fn non_zero(&self) -> Vec<(usize, u64)> {
        self.touched
            .iter()
            .filter(|&(_, &v)| v != 0)
            .map(|(&g, &v)| (g, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_gpu_sim::KernelConfig;

    #[test]
    fn scalar_sum_across_blocks() {
        let dev = Device::v100();
        let mut sum = ScalarSum::new(&dev);
        dev.launch(KernelConfig::new("sum", 4, 128), |ctx| {
            let base = ctx.block_id() as u64;
            sum.add_tile(ctx, (0..10u64).map(|v| v + base));
        });
        // 4 blocks x (45 + 10*block_id)
        assert_eq!(sum.value(), 45 * 4 + 10 * (1 + 2 + 3));
    }

    #[test]
    fn group_by_sum() {
        let dev = Device::v100();
        let mut g = GroupBySum::new(&dev, 8);
        dev.launch(KernelConfig::new("gb", 2, 128), |ctx| {
            g.add_tile(ctx, &[(1, 10), (3, 5), (1, 1)]);
        });
        assert_eq!(g.values()[1], 22);
        assert_eq!(g.values()[3], 10);
        assert_eq!(g.non_zero(), vec![(1, 22), (3, 10)]);
    }

    /// The sparse table charges exactly what dense global atomics on an
    /// allocated buffer at the same addresses would, holds the same
    /// sums, and leaves the allocator where the dense buffer would.
    #[test]
    fn sparse_group_by_matches_dense_atomics() {
        const GROUPS: usize = 100_000;
        let mut state = 0x5EED_u64;
        let pairs: Vec<(usize, u64)> = (0..3000)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                // Clustered and scattered groups, some values zero.
                let g = if i % 3 == 0 {
                    i % 40
                } else {
                    (state >> 33) as usize % GROUPS
                };
                (g, (state >> 20) % 7)
            })
            .collect();

        let sparse_dev = Device::v100();
        let mut sparse = GroupBySum::new(&sparse_dev, GROUPS);
        let sparse_next = sparse_dev.alloc_zeroed::<u8>(1).addr_of(0);
        let sparse_report = sparse_dev.launch(KernelConfig::new("gb", 4, 128), |ctx| {
            let tile = &pairs[ctx.block_id() * 750..][..750];
            sparse.add_tile(ctx, tile);
        });

        let dense_dev = Device::v100();
        let mut dense = dense_dev.alloc_zeroed::<u64>(GROUPS);
        let dense_next = dense_dev.alloc_zeroed::<u8>(1).addr_of(0);
        let dense_report = dense_dev.launch(KernelConfig::new("gb", 4, 128), |ctx| {
            ctx.set_phase(Phase::Aggregate);
            let tile = &pairs[ctx.block_id() * 750..][..750];
            for chunk in tile.chunks(WARP_SIZE) {
                ctx.warp_atomic_add_u64(&mut dense, chunk);
            }
            ctx.add_int_ops(tile.len() as u64 * 2);
        });

        assert_eq!(sparse_next, dense_next);
        assert_eq!(sparse_report.traffic, dense_report.traffic);
        assert_eq!(sparse_report.spans, dense_report.spans);
        assert_eq!(
            sparse_report.seconds.to_bits(),
            dense_report.seconds.to_bits()
        );
        let dense = dense.as_slice_unaccounted();
        assert_eq!(sparse.values(), dense);
        let nonzero: Vec<(usize, u64)> = dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(g, &v)| (g, v))
            .collect();
        assert_eq!(sparse.non_zero(), nonzero);
        assert_eq!(sparse.len(), GROUPS);
    }

    #[test]
    fn atomics_are_charged() {
        let dev = Device::v100();
        let mut g = GroupBySum::new(&dev, 1024);
        dev.reset_timeline();
        dev.launch(KernelConfig::new("gb", 1, 128), |ctx| {
            let pairs: Vec<(usize, u64)> = (0..256).map(|i| (i * 4 % 1024, 1)).collect();
            g.add_tile(ctx, &pairs);
        });
        let t = dev.with_timeline(|tl| tl.total_traffic());
        assert!(t.global_write_segments > 0 && t.global_read_segments > 0);
    }
}

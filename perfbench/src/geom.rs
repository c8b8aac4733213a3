//! Seeded workload generation: tile geometries drawn from the workload
//! seed, their GEMM work, and their single-process reference energies.

use tce::{Inspection, Kernel, SpaceConfig, TileSpace};

/// The kernels every workload executes.
pub const KERNELS: [Kernel; 1] = [Kernel::T2_7];

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for a labelled purpose.
    pub fn fork(&self, label: u64) -> Self {
        Self(Rng(self.0 ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// GEMM work of one solve: flops (`2mnk` summed) and the bytes its
/// operands and outputs occupy (`8(mk + kn + mn)` summed).
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmWork {
    pub flops: f64,
    pub bytes: f64,
    pub chains: usize,
    pub gemms: usize,
}

pub fn gemm_work(ins: &Inspection) -> GemmWork {
    let mut w = GemmWork {
        chains: ins.num_chains(),
        gemms: ins.total_gemms,
        ..GemmWork::default()
    };
    for c in &ins.chains {
        for g in &c.gemms {
            let (m, n, k) = (c.m as f64, c.n as f64, g.k as f64);
            w.flops += 2.0 * m * n * k;
            w.bytes += 8.0 * (m * k + k * n + m * n);
        }
    }
    w
}

/// Inspect a geometry the way one solve over `nodes` ranks sees it.
pub fn inspect(cfg: &SpaceConfig, nodes: usize) -> Inspection {
    tce::inspect_kernels(&TileSpace::build(cfg), nodes, &KERNELS)
}

/// How a workload's geometries are drawn: a base shape whose tile sizes
/// and irreps come from a drawn seed, kept only when its GEMM flops,
/// tensor storage and GEMM count each lie within `tol` of the class's
/// targets. The band keeps the amount and grain of work per solve the
/// same across workload seeds, so a second seed measures the same input
/// size on a different geometry.
#[derive(Debug, Clone)]
pub struct GeomClass {
    pub base: SpaceConfig,
    pub gflop: f64,
    /// `t2 + v + i2` storage in MB.
    pub tensor_mb: f64,
    pub gemms: f64,
    pub tol: f64,
}

impl GeomClass {
    /// Draw one geometry from `rng`.
    pub fn draw(&self, rng: &mut Rng) -> SpaceConfig {
        let near = |v: f64, target: f64| (v / target - 1.0).abs() <= self.tol;
        for _ in 0..1_000_000 {
            let cfg = SpaceConfig {
                seed: rng.next_u64(),
                ..self.base.clone()
            };
            let ins = inspect(&cfg, 1);
            let w = gemm_work(&ins);
            if near(w.flops / 1e9, self.gflop)
                && near(tensor_mb(&ins), self.tensor_mb)
                && near(w.gemms as f64, self.gemms)
            {
                return cfg;
            }
        }
        panic!("no geometry near {self:?}");
    }
}

/// Storage of the tensors one solve reads and writes, in MB.
pub fn tensor_mb(ins: &Inspection) -> f64 {
    (ins.t2.len() + ins.v.len() + ins.i2.len()) as f64 * 8.0 / 1e6
}

/// The single-process reference energy of a geometry and the scale
/// its agreement is judged on.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub energy: f64,
    /// `sum |w * i2|` over the terms of `tce::energy`'s functional. The
    /// signed sum cancels by up to four orders of magnitude, so parallel
    /// accumulation order moves the energy by a fraction of an ulp of
    /// this scale, which can exceed 1e-12 of the energy itself.
    pub scale: f64,
}

/// Reference energy of a geometry, from `ccsd::verify::reference_energy`.
pub fn reference(cfg: &SpaceConfig) -> Reference {
    let ws = tce::build_workspace_kernels(&TileSpace::build(cfg), 1, &KERNELS);
    let energy = ccsd::verify::reference_energy(&ws);
    let mut scale = 0.0;
    for (key, offset, size) in ws.i2_layout.index.iter() {
        for (i, x) in ws.ga.get(ws.i2, offset, size).iter().enumerate() {
            scale += (tce::util::block_element(tce::energy::W_SEED, key, i) * x).abs();
        }
    }
    Reference {
        energy,
        scale: scale.max(energy.abs()).max(1.0),
    }
}

/// A geometry on a command line: the six `SpaceConfig` fields.
pub fn encode(cfg: &SpaceConfig) -> String {
    format!(
        "{},{},{},{},{},{}",
        cfg.occ_tiles_per_spin,
        cfg.virt_tiles_per_spin,
        cfg.tile_size,
        cfg.size_spread,
        cfg.irreps,
        cfg.seed
    )
}

/// Inverse of [`encode`].
pub fn decode(s: &str) -> Option<SpaceConfig> {
    let f: Vec<u64> = s
        .split(',')
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    let [occ, virt, tile, spread, irreps, seed] = f[..] else {
        return None;
    };
    Some(SpaceConfig {
        occ_tiles_per_spin: occ as usize,
        virt_tiles_per_spin: virt as usize,
        tile_size: tile as usize,
        size_spread: spread as usize,
        irreps: irreps as u8,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_stay_in_band() {
        let class = GeomClass {
            base: tce::scale::small(),
            gflop: 0.0003,
            tensor_mb: 0.11,
            gemms: 166.0,
            tol: 0.25,
        };
        let a = class.draw(&mut Rng::new(7));
        let b = class.draw(&mut Rng::new(7));
        assert_eq!(a.seed, b.seed);
        let g = gemm_work(&inspect(&a, 1)).flops / 1e9;
        assert!((g / 0.0003 - 1.0).abs() <= 0.25);
        assert_eq!(decode(&encode(&a)).unwrap().seed, a.seed);
    }
}

//! Provenance: what ran, where.

use std::fs;

/// The host and build a result was measured on.
pub struct Host {
    pub nproc: usize,
    pub rayon_threads: usize,
    pub kernel_variant: &'static str,
    pub cpu_model: String,
    pub l3_bytes: Option<u64>,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Self {
        let (cpu_model, l3_bytes) = cpu();
        Host {
            nproc: crate::fixture::nproc(),
            rayon_threads: rayon::current_num_threads(),
            kernel_variant: dnnspmv_nn::gemm::simd::active_variant().name(),
            cpu_model,
            l3_bytes,
            git_rev: git_rev(),
        }
    }

    /// One JSON object, with the run's workload and seed.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let l3 = self.l3_bytes.map_or("null".to_string(), |b| b.to_string());
        format!(
            "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \
             \"nproc\": {}, \"rayon_threads\": {}, \"kernel_variant\": \"{}\", \
             \"cpu_model\": \"{}\", \"l3_bytes\": {l3}, \"git_rev\": \"{}\", \
             \"spmv_gbps\": \"computed from nonzero/row/column counts, not DRAM traffic\"}}}}",
            self.nproc,
            self.rayon_threads,
            self.kernel_variant,
            self.cpu_model.replace(['"', '\\'], ""),
            self.git_rev,
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU brand string and L3 size, from CPUID (no files read).
#[cfg(target_arch = "x86_64")]
fn cpu() -> (String, Option<u64>) {
    use std::arch::x86_64::__cpuid_count;
    let regs = |leaf: u32, sub: u32| {
        let r = __cpuid_count(leaf, sub);
        [r.eax, r.ebx, r.ecx, r.edx]
    };
    let max_ext = regs(0x8000_0000, 0)[0];
    let brand = if max_ext >= 0x8000_0004 {
        let bytes: Vec<u8> = (0x8000_0002..=0x8000_0004u32)
            .flat_map(|l| regs(l, 0))
            .flat_map(u32::to_le_bytes)
            .filter(|&b| b != 0)
            .collect();
        String::from_utf8_lossy(&bytes).trim().to_string()
    } else {
        "unknown x86_64".into()
    };
    // Deterministic cache parameters (leaf 4), walked until the null
    // descriptor; the level-3 entry gives ways × partitions × line × sets.
    let l3 = (regs(0, 0)[0] >= 4)
        .then(|| {
            (0..16)
                .map_while(|i| {
                    let [a, b, c, _] = regs(4, i);
                    (a & 0x1f != 0).then_some((a, b, c))
                })
                .find(|(a, _, _)| (a >> 5) & 0x7 == 3)
                .map(|(_, b, c)| {
                    let ways = u64::from((b >> 22) + 1);
                    let parts = u64::from(((b >> 12) & 0x3ff) + 1);
                    let line = u64::from((b & 0xfff) + 1);
                    ways * parts * line * u64::from(c + 1)
                })
        })
        .flatten()
        // Leaf 0x8000_0006 EDX[31:18]: L3 size in 512 KiB units.
        .or_else(|| {
            (max_ext >= 0x8000_0006)
                .then(|| u64::from(regs(0x8000_0006, 0)[3] >> 18) * 512 * 1024)
                .filter(|&b| b > 0)
        });
    (brand, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu() -> (String, Option<u64>) {
    (std::env::consts::ARCH.to_string(), None)
}

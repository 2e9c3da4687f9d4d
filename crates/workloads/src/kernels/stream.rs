//! STREAM-triad-style bandwidth kernel.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::suite::Workload;
use crate::traced::TracedMemory;

/// STREAM triad: `a[i] = b[i] + s · c[i]` over `n` 64-bit elements,
/// repeated `reps` times.
///
/// Pure streaming with a fixed 2-reads-1-write mix and no temporal reuse
/// within a pass — the classic bandwidth workload. `b` holds small
/// (sparse-bit) operands, `c` dense random ones, so the read stream mixes
/// both densities line by line.
///
/// # Panics
///
/// Panics if `n` or `reps` is zero, or the output disagrees with an
/// untraced reference (self-check).
pub fn stream_triad(n: usize, reps: usize, seed: u64) -> Workload {
    assert!(n > 0 && reps > 0, "stream_triad needs n > 0 and reps > 0");
    let mut mem = TracedMemory::new();
    let a = mem.alloc((n * 8) as u64);
    let b = mem.alloc((n * 8) as u64);
    let c = mem.alloc((n * 8) as u64);
    let scalar = 3u64;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ref_b = Vec::with_capacity(n);
    let mut ref_c = Vec::with_capacity(n);
    for i in 0..n {
        let bv = u64::from(rng.gen::<u16>()); // small: sparse upper bits
        let cv: u64 = rng.gen(); // dense
        ref_b.push(bv);
        ref_c.push(cv);
        mem.store_u64(b + (i * 8) as u64, bv);
        mem.store_u64(c + (i * 8) as u64, cv);
    }

    for _ in 0..reps {
        for i in 0..n {
            let bv = mem.load_u64(b + (i * 8) as u64);
            let cv = mem.load_u64(c + (i * 8) as u64);
            mem.store_u64(a + (i * 8) as u64, bv.wrapping_add(scalar.wrapping_mul(cv)));
        }
    }

    for i in (0..n).step_by(n.div_ceil(16).max(1)) {
        let expect = ref_b[i].wrapping_add(scalar.wrapping_mul(ref_c[i]));
        assert_eq!(
            mem.peek_u64(a + (i * 8) as u64),
            expect,
            "stream_triad self-check failed at {i}"
        );
    }

    Workload::new(
        "stream_triad",
        format!("a[i] = b[i] + {scalar}*c[i] over {n} u64 elements, {reps} pass(es)"),
        mem.into_trace(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_mix_is_two_reads_one_write() {
        let n = 256;
        let w = stream_triad(n, 2, 3);
        let demand = w.trace.iter().skip(2 * n);
        let writes = demand.clone().filter(|a| a.is_write()).count();
        assert_eq!(writes * 3, demand.len(), "1 write per 2 reads");
    }

    #[test]
    fn trace_length() {
        let w = stream_triad(64, 3, 4);
        assert_eq!(w.trace.len(), 2 * 64 + 3 * 64 * 3);
    }
}

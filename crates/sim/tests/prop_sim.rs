//! Property-based tests: the cache must be a transparent layer over memory.

use cnt_sim::{Address, Cache, CacheGeometry, MainMemory, ReplacementKind, WriteMode};
use proptest::prelude::*;
use std::collections::HashMap;

/// A miniature operation language over a small address range so sets
/// conflict often.
#[derive(Debug, Clone)]
enum Op {
    Read { addr: u64, width: u8 },
    Write { addr: u64, width: u8, value: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let width = prop::sample::select(vec![1u8, 2, 4, 8]);
    (0u64..4096, width, any::<u64>(), any::<bool>()).prop_map(|(raw, width, value, is_write)| {
        let addr = raw & !(u64::from(width) - 1); // naturally align
        if is_write {
            Op::Write { addr, width, value }
        } else {
            Op::Read { addr, width }
        }
    })
}

fn arb_kind() -> impl Strategy<Value = ReplacementKind> {
    prop::sample::select(vec![
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random { seed: 7 },
        ReplacementKind::TreePlru,
        ReplacementKind::Srrip,
    ])
}

fn arb_write_mode() -> impl Strategy<Value = WriteMode> {
    prop::sample::select(vec![
        WriteMode::WriteBack,
        WriteMode::WriteThrough,
        WriteMode::WriteThroughNoAllocate,
    ])
}

fn width_mask(width: u8) -> u64 {
    match width {
        8 => u64::MAX,
        w => (1u64 << (u64::from(w) * 8)) - 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Against a byte-granular reference model, the cache must always
    /// return exactly what was last written, for every replacement policy.
    #[test]
    fn cache_matches_reference_model(
        ops in prop::collection::vec(arb_op(), 1..400),
        kind in arb_kind(),
        mode in arb_write_mode(),
    ) {
        let geometry = CacheGeometry::new(1024, 64, 2).expect("valid"); // tiny: lots of evictions
        let mut cache = Cache::new("t", geometry, kind).with_write_mode(mode);
        let mut mem = MainMemory::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Write { addr, width, value } => {
                    cache.write(Address::new(addr), width, value, &mut mem, &mut ()).expect("write");
                    for i in 0..u64::from(width) {
                        reference.insert(addr + i, (value >> (8 * i)) as u8);
                    }
                }
                Op::Read { addr, width } => {
                    let got = cache.read(Address::new(addr), width, &mut mem, &mut ()).expect("read");
                    let mut expect = 0u64;
                    for i in (0..u64::from(width)).rev() {
                        expect = (expect << 8) | u64::from(*reference.get(&(addr + i)).unwrap_or(&0));
                    }
                    prop_assert_eq!(got, expect & width_mask(width), "read at {:#x} width {}", addr, width);
                }
            }
        }

        // After a flush, memory itself must agree with the reference model.
        cache.flush(&mut mem, &mut ());
        for (&addr, &byte) in &reference {
            let got = mem.load(Address::new(addr), 1) as u8;
            prop_assert_eq!(got, byte, "memory divergence at {:#x}", addr);
        }
    }

    /// Statistics bookkeeping invariants hold on any workload.
    #[test]
    fn stats_invariants(ops in prop::collection::vec(arb_op(), 1..300)) {
        let geometry = CacheGeometry::new(512, 64, 2).expect("valid");
        let mut cache = Cache::new("t", geometry, ReplacementKind::Lru);
        let mut mem = MainMemory::new();
        let mut reads = 0u64;
        let mut writes = 0u64;
        for op in &ops {
            match *op {
                Op::Write { addr, width, value } => {
                    cache.write(Address::new(addr), width, value, &mut mem, &mut ()).expect("write");
                    writes += 1;
                }
                Op::Read { addr, width } => {
                    cache.read(Address::new(addr), width, &mut mem, &mut ()).expect("read");
                    reads += 1;
                }
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.reads(), reads);
        prop_assert_eq!(s.writes(), writes);
        prop_assert_eq!(s.fills, s.misses());
        prop_assert!(s.writebacks <= s.evictions);
        prop_assert!(s.evictions <= s.fills);
        let resident = cache.valid_lines().count() as u64;
        prop_assert!(resident <= geometry.num_lines());
        prop_assert_eq!(s.fills - s.evictions, resident);
    }

    /// Write-through modes never leave dirty lines and write through on
    /// every store.
    #[test]
    fn write_through_invariants(
        ops in prop::collection::vec(arb_op(), 1..300),
        no_allocate in any::<bool>(),
    ) {
        let mode = if no_allocate {
            WriteMode::WriteThroughNoAllocate
        } else {
            WriteMode::WriteThrough
        };
        let geometry = CacheGeometry::new(1024, 64, 2).expect("valid");
        let mut cache = Cache::new("t", geometry, ReplacementKind::Lru).with_write_mode(mode);
        let mut mem = MainMemory::new();
        let mut writes = 0u64;
        for op in &ops {
            match *op {
                Op::Write { addr, width, value } => {
                    cache.write(Address::new(addr), width, value, &mut mem, &mut ()).expect("write");
                    writes += 1;
                }
                Op::Read { addr, width } => {
                    cache.read(Address::new(addr), width, &mut mem, &mut ()).expect("read");
                }
            }
        }
        prop_assert_eq!(cache.stats().writethroughs, writes);
        prop_assert_eq!(cache.stats().writebacks, 0, "write-through lines are never dirty");
        prop_assert_eq!(cache.flush(&mut mem, &mut ()), 0);
        for line in cache.snapshot().lines {
            prop_assert!(!line.dirty);
        }
    }

    /// The text trace format round-trips arbitrary traces.
    #[test]
    fn trace_text_round_trips(ops in prop::collection::vec(arb_op(), 0..200)) {
        use cnt_sim::trace::{AccessBatch, MemoryAccess};
        let trace: AccessBatch = ops
            .iter()
            .map(|op| match *op {
                Op::Read { addr, width } => MemoryAccess::read(Address::new(addr), width),
                Op::Write { addr, width, value } => {
                    // Values are masked to the width on the wire.
                    MemoryAccess::write(Address::new(addr), width, value & width_mask(width))
                }
            })
            .collect();
        let text = trace.to_text();
        let back: AccessBatch = text.parse().expect("parseable");
        prop_assert_eq!(back, trace);
    }

    /// Geometry split/line_base round-trips for arbitrary shapes.
    #[test]
    fn geometry_round_trip(
        size_pow in 9u32..20,
        line_pow in 3u32..8,
        assoc_pow in 0u32..4,
        addr in any::<u64>(),
    ) {
        let size = 1u64 << size_pow;
        let line = 1u32 << line_pow;
        let assoc = 1u32 << assoc_pow;
        prop_assume!(size >= u64::from(line) * u64::from(assoc));
        let g = CacheGeometry::new(size, line, assoc).expect("valid by construction");
        let addr = addr >> 8; // keep tags in range
        let parts = g.split(Address::new(addr));
        let base = g.line_base(parts.tag, parts.set);
        prop_assert_eq!(base.value() + parts.offset, addr);
        prop_assert!(parts.set < g.num_sets());
    }
}

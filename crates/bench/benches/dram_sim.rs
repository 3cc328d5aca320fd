//! DRAM simulator throughput benchmarks: host streaming, NDP rank
//! parallelism, and random-access patterns.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ansmet_dram::{AccessKind, DramConfig, MemorySystem, Port, Request};

fn run_pattern(port: Port, addrs: &[u64]) -> u64 {
    let mut cfg = DramConfig::ddr5_4800();
    cfg.refresh_enabled = false;
    let mut mem = MemorySystem::new(cfg);
    let mut issued = 0usize;
    let mut id = 0u64;
    while issued < addrs.len() {
        while issued < addrs.len()
            && mem
                .enqueue(Request::new(id, AccessKind::Read, addrs[issued], port))
                .is_ok()
        {
            id += 1;
            issued += 1;
        }
        mem.tick();
    }
    mem.drain_all();
    mem.now()
}

fn bench_dram(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    let stream: Vec<u64> = (0..512u64).map(|i| i * 64).collect();
    let random: Vec<u64> = (0..512u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) % (1 << 28)) & !63)
        .collect();
    group.bench_function("host-stream-512", |b| {
        b.iter(|| run_pattern(Port::Host, black_box(&stream)))
    });
    group.bench_function("host-random-512", |b| {
        b.iter(|| run_pattern(Port::Host, black_box(&random)))
    });
    group.bench_function("ndp-stream-512", |b| {
        b.iter(|| run_pattern(Port::Ndp, black_box(&stream)))
    });
    group.finish();
}

criterion_group!(benches, bench_dram);
criterion_main!(benches);

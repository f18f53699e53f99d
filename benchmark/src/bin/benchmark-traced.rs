//! `benchmark-traced` — the per-layer measurement of one workload.
//!
//! Takes the flags of `benchmark --workload …` and always measures the
//! per-layer metrics. It is a binary of its own because it installs the
//! counting allocator, which the timed binary must not pay for.

use benchmark::spec::Spec;
use benchmark::Flags;

#[global_allocator]
static GLOBAL: benchmark::alloc::CountingAlloc = benchmark::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Spec::load()
        .and_then(|spec| Flags::parse(&args, spec.run_seconds))
        .and_then(|flags| {
            benchmark::measure(&Flags {
                trace: true,
                ..flags
            })
        });
    if let Err(e) = result {
        eprintln!("benchmark-traced: {e}");
        std::process::exit(2);
    }
}

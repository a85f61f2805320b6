//! The GroCoca benchmark: runs one named workload in one process on one
//! simulation thread, checks the simulated output, and prints one JSON
//! result line.
//!
//! ```text
//! grococa-perfbench --workload gc-n400 --seed 1 --seconds 60 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--tiny` shrinks the population for the self-test, and
//! `--tamper digest|resume` injects a fault the correctness gate must
//! catch. See README.md next to this file for the workloads and metrics.

mod e2e;
mod layers;
mod measure;
mod speed;
mod workload;

use std::process::ExitCode;

use workload::{Gate, Tamper, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    tamper: Tamper,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 60.0;
    let mut trace = false;
    let mut tiny = false;
    let mut tamper = Tamper::None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--tiny" => tiny = true,
            "--tamper" => {
                tamper = match value()?.as_str() {
                    "digest" => Tamper::Digest,
                    "resume" => Tamper::Resume,
                    v => return Err(format!("--tamper takes digest or resume, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        tamper,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let deadline = measure::deadline_in(args.seconds);
    let cfg = args.workload.config(args.seed, args.tiny);
    let mut gate = Gate::new(&cfg);
    let metrics = if args.trace {
        layers::measure(&cfg, deadline, &mut gate, args.tamper)
    } else {
        e2e::measure(&cfg, deadline, &mut gate, args.tamper)
    };

    let got = gate.reference().unwrap_or(0);
    eprintln!(
        "perfbench: {:?} (tiny: {}) seed {}: output digest {got:#018x}",
        args.workload, args.tiny, args.seed
    );
    if args.seed == DEFAULT_SEED || args.tamper == Tamper::Digest {
        let mut pinned = args.workload.pinned_digest(args.tiny);
        if args.tamper == Tamper::Digest {
            pinned ^= 1;
        }
        gate.check(got == pinned, || {
            format!("output digest {got:#018x} differs from the pinned {pinned:#018x}")
        });
    }
    for m in &metrics.0 {
        gate.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    for f in &gate.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    for m in &metrics.0 {
        eprintln!("perfbench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        measure::result_json(gate.ok(), gate.attempted(), gate.failed(), &metrics)
    );
    ExitCode::SUCCESS
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host line and then, as the last stdout line, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Extra flags:
//! `--tiny` (tiny geometries, for the self-test) and `--bad-reference`
//! (perturbed reference energies, to prove mismatches are counted).

use perfbench::{arg, ccsd_wl, metrics, svc_wl, Args, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Args, String> {
    let workload = arg(args, "--workload").ok_or("missing --workload")?;
    let num = |key: &str, default: &str| -> Result<f64, String> {
        arg(args, key)
            .unwrap_or(default)
            .parse()
            .map_err(|_| format!("bad {key}"))
    };
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: arg(args, "--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "bad --seed")?,
        seconds: num("--seconds", "10")?,
        trace: num("--trace", "0")? != 0.0,
        tiny: args.iter().any(|a| a == "--tiny"),
        bad_reference: args.iter().any(|a| a == "--bad-reference"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(role) = arg(&args, "--role") {
        let res = match role {
            "ccsd" => ccsd_wl::rank_main(&args),
            "svc" => svc_wl::rank_main(&args),
            other => Err(format!("unknown role `{other}`")),
        };
        return match res {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench rank: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&parsed) {
        Ok(out) => {
            let v = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
            println!(
                "# host nproc={} steal_frac={:.4}",
                v("host.nproc"),
                v("host.steal_frac")
            );
            for p in &out.problems {
                println!("# problem: {p}");
            }
            eprintln!(
                "# energies: worst |E - E_ref| / |E_ref| = {:.2e}",
                out.worst_rel
            );
            let table = if parsed.trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            println!("{}", out.json(table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

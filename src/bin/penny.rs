//! `penny` — the command-line front end.
//!
//! ```text
//! penny compile <file> [--scheme NAME] [--grid N] [--block N] [--emit]
//! penny run     <file> [same flags] [--param V]... [--fill ADDR LEN SEED]...
//!                      [--dump ADDR LEN]... [--inject BLOCK,WARP,LANE,REG,BIT,AFTER]...
//! penny check   <file>                 # parse + verify only
//! ```
//!
//! Kernels are in the PTX-like assembly (see `penny::ir::parser`). `run`
//! zero-fills device memory; use `--fill ADDR LEN SEED` to place
//! deterministic pseudo-random inputs, `--dump ADDR LEN` to print memory
//! after the launch. Numbers may be hex (`0x20000`).
//!
//! `--scheme` takes one of the five scheme names every binary shares
//! (`baseline`, `igpu`, `bolt-global`, `bolt-auto`, `penny`; the
//! default), matched ignoring case, `-` and `_` (`BoltGlobal` works
//! too). A flag's value may follow as `--flag value` or `--flag=value`.
//! Exit status: 0 ok, 1 the kernel failed to load, compile or run,
//! 2 usage error.

use std::process::ExitCode;

use penny::compiler::{compile, LaunchDims};
use penny::sim::{FaultPlan, Gpu, GpuConfig, Injection, LaunchConfig};
use penny_bench::cli::{self, Prog};
use penny_bench::SchemeId;

const PROG: Prog = Prog("penny");

struct Args {
    command: String,
    file: String,
    /// The scheme, and its `--scheme` spelling that `compile` echoes.
    scheme: (SchemeId, String),
    grid: u32,
    block: u32,
    emit: bool,
    params: Vec<u32>,
    fills: Vec<(u32, u32, u32)>,
    dumps: Vec<(u32, u32)>,
    injections: Vec<Injection>,
}

const USAGE: &str = "usage: penny <compile|run|check> <file.ptx> \
     [--scheme baseline|igpu|bolt-global|bolt-auto|penny] [--grid N] [--block N] \
     [--emit] [--param V]... [--fill ADDR LEN SEED]... [--dump ADDR LEN]... \
     [--inject BLOCK,WARP,LANE,REG,BIT,AFTER]...";

/// A decimal or `0x` hex `u32`.
fn parse_u32(s: &str) -> Result<u32, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad number `{s}`: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
    }
}

/// `BLOCK,WARP,LANE,REG,BIT,AFTER`.
fn parse_injection(spec: &str) -> Result<Injection, String> {
    let parts: Vec<u32> = spec.split(',').map(parse_u32).collect::<Result<_, _>>()?;
    let [block, warp, lane, reg, bit, after] = parts[..] else {
        return Err(format!("wants 6 fields, got {}", parts.len()));
    };
    Ok(Injection { block, warp, lane, reg, bit, after_warp_insts: after.into() })
}

fn parse_args() -> Args {
    let mut a = Args {
        command: String::new(),
        file: String::new(),
        scheme: (SchemeId::Penny, "penny".into()),
        grid: 4,
        block: 32,
        emit: false,
        params: Vec::new(),
        fills: Vec::new(),
        dumps: Vec::new(),
        injections: Vec::new(),
    };
    let mut positional = Vec::new();
    let mut args = PROG.args();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scheme" => {
                a.scheme = args.parse(|v| cli::scheme(v).map(|id| (id, v.into())))
            }
            "--grid" => a.grid = args.parse(parse_u32),
            "--block" => a.block = args.parse(parse_u32),
            "--emit" => a.emit = true,
            "--param" => a.params.push(args.parse(parse_u32)),
            "--fill" => {
                let addr = args.parse(parse_u32);
                a.fills.push((addr, args.parse(parse_u32), args.parse(parse_u32)));
            }
            "--dump" => {
                let addr = args.parse(parse_u32);
                a.dumps.push((addr, args.parse(parse_u32)));
            }
            "--inject" => a.injections.push(args.parse(parse_injection)),
            _ => positional.push(args.positional()),
        }
    }
    [a.command, a.file] = positional.try_into().unwrap_or_else(|_| PROG.die(USAGE));
    if !["check", "compile", "run"].contains(&a.command.as_str()) {
        PROG.die(format!("unknown command `{}`\n{USAGE}", a.command));
    }
    a
}

fn main() -> ExitCode {
    match run(&parse_args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("penny: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
    let kernel =
        penny::ir::parse_kernel(&text).map_err(|e| format!("{}: {e}", args.file))?;
    penny::ir::validate(&kernel).map_err(|e| format!("{}: {e}", args.file))?;

    match args.command.as_str() {
        "check" => {
            println!(
                "{}: ok ({} blocks, {} instructions, {} params)",
                kernel.name,
                kernel.num_blocks(),
                kernel.num_insts(),
                kernel.params.len()
            );
            Ok(())
        }
        "compile" => {
            let dims = LaunchDims::linear(args.grid, args.block);
            let cfg = args.scheme.0.config().with_launch(dims);
            let protected = compile(&kernel, &cfg).map_err(|e| e.to_string())?;
            let s = &protected.stats;
            println!("scheme: {}", args.scheme.1);
            println!("regions:            {}", s.regions);
            println!(
                "checkpoints:        {} considered, {} committed",
                s.total_checkpoints, s.committed
            );
            println!("  pruned (basic):   {}", s.pruned_basic);
            println!("  pruned (optimal): +{}", s.pruned_additional);
            println!(
                "overwrite-prone:    {} regs, {} adjustment blocks",
                s.overwrite_prone_regs, s.adjustment_blocks
            );
            println!("regs/thread:        {}", s.regs_per_thread);
            println!(
                "ckpt storage:       {} B shared, {} global slots",
                s.ckpt_shared_bytes, s.ckpt_global_slots
            );
            println!("est. occupancy:     {:.0}%", s.occupancy * 100.0);
            if args.emit {
                println!("\n{}", protected.kernel);
            }
            Ok(())
        }
        "run" => {
            let dims = LaunchDims::linear(args.grid, args.block);
            let cfg = args.scheme.0.config().with_launch(dims);
            let protected = compile(&kernel, &cfg).map_err(|e| e.to_string())?;
            if args.params.len() != kernel.params.len() {
                return Err(format!(
                    "kernel takes {} params ({}), {} given via --param",
                    kernel.params.len(),
                    kernel
                        .params
                        .iter()
                        .map(|p| p.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    args.params.len()
                ));
            }
            let gpu_config = GpuConfig::fermi().with_rf(args.scheme.0.rf());
            let mut gpu = Gpu::new(gpu_config);
            for &(addr, len, seed) in &args.fills {
                let mut rng = penny::workloads::util::XorShift32::new(seed);
                let data: Vec<u32> = (0..len).map(|_| rng.next_u32() % 1000).collect();
                gpu.global_mut().write_slice(addr, &data);
            }
            let launch = LaunchConfig::new(dims, args.params.clone())
                .with_faults(FaultPlan { injections: args.injections.clone() });
            let stats = gpu.run(&protected, &launch).map_err(|e| e.to_string())?;
            println!("cycles:          {}", stats.cycles);
            println!("instructions:    {}", stats.instructions);
            println!(
                "rf accesses:     {} reads, {} writes",
                stats.rf.reads, stats.rf.writes
            );
            println!("errors detected: {}", stats.rf.detected);
            println!("recoveries:      {}", stats.recoveries);
            for &(addr, len) in &args.dumps {
                let words = gpu.global().read_slice(addr, len as usize);
                println!("[0x{addr:08X}..+{len}] = {words:?}");
            }
            Ok(())
        }
        _ => unreachable!("parse_args accepts only check, compile and run"),
    }
}

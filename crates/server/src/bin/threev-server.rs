//! `threev-server` — serve a sharded 3V cluster over TCP.
//!
//! The served schema is the sharded hospital schema for the requested
//! topology (one department per database node), so plans from
//! `threev_server::load::schedule` for the same `--partitions`/`--nodes`
//! match it.
//!
//! Shut the server down with a `Shutdown` request over the wire
//! (`Client::shutdown`).

use std::process::exit;

use threev_server::load::LoadConfig;
use threev_server::{serve, Engine, ServerConfig};
use threev_shard::ShardedConfig;
use threev_sim::SimDuration;

const USAGE: &str = "usage: threev-server [--addr HOST:PORT] [--partitions P] [--nodes N] \
                     [--workers W] [--queue Q] [--advance-every K] [--seed S] [--allow-stall]";

struct Args {
    addr: String,
    partitions: u16,
    nodes: u16,
    workers: usize,
    queue: usize,
    advance_every: u64,
    seed: u64,
    allow_stall: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:3377".to_string(),
        partitions: 4,
        nodes: 2,
        workers: 4,
        queue: 64,
        advance_every: 32,
        seed: 42,
        allow_stall: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--partitions" => args.partitions = parse(&val("--partitions")?, "--partitions")?,
            "--nodes" => args.nodes = parse(&val("--nodes")?, "--nodes")?,
            "--workers" => args.workers = parse(&val("--workers")?, "--workers")?,
            "--queue" => args.queue = parse(&val("--queue")?, "--queue")?,
            "--advance-every" => {
                args.advance_every = parse(&val("--advance-every")?, "--advance-every")?
            }
            "--seed" => args.seed = parse(&val("--seed")?, "--seed")?,
            "--allow-stall" => args.allow_stall = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.partitions == 0 || args.nodes == 0 {
        return Err("--partitions and --nodes must be positive".to_string());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{name}={raw:?} is not a valid value\n{USAGE}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Nominal rate/duration: only the schema is taken from this config.
    let schema = LoadConfig {
        partitions: args.partitions,
        nodes_per_partition: args.nodes,
        rate_tps: 1_000.0,
        duration: SimDuration::from_millis(1),
        read_pct: 0,
        seed: args.seed,
    }
    .hospital()
    .schema();
    let cluster_cfg = ShardedConfig::new(args.partitions, args.nodes)
        .seed(args.seed)
        .backend(threev::testutil::backend_from_env("server"));
    let engine = Engine::new(&schema, cluster_cfg, args.advance_every);
    let server_cfg = ServerConfig {
        addr: args.addr,
        workers: args.workers,
        queue_capacity: args.queue,
        allow_stall: args.allow_stall,
        ..ServerConfig::default()
    };
    let handle = serve(engine, server_cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("threev-server listening on {}", handle.addr());
    handle.join().map_err(|e| format!("server failed: {e}"))
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("threev-server: {msg}");
        exit(2);
    }
}

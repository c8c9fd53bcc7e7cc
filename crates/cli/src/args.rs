//! Argument parsing for the `icomm` CLI (std-only, no clap).

use icomm_models::CommModelKind;
use icomm_net::WireMode;
use icomm_soc::{DeviceProfile, PageSize};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `icomm boards` — list the built-in device profiles.
    Boards,
    /// `icomm characterize <board> [--save <file>]` — run the three
    /// micro-benchmarks, optionally caching the result as JSON.
    Characterize {
        /// Board name.
        board: String,
        /// Where to save the characterization.
        save: Option<String>,
    },
    /// `icomm tune <board> <app> [--current <model>] [--pages <size>]
    /// [--json]` — profile an application and print the framework's
    /// verdict.
    Tune {
        /// Board name.
        board: String,
        /// Application name (`shwfs`, `orb`, `lane`).
        app: String,
        /// The model the application currently uses.
        current: CommModelKind,
        /// Page size the board maps the shared allocation with
        /// (`4k`, `64k`, `2m`); `None` keeps the profile's default.
        pages: Option<PageSize>,
        /// A cached characterization file (skips the micro-benchmarks).
        characterization: Option<String>,
        /// Print the validated recommendation as JSON.
        json: bool,
    },
    /// `icomm adapt <board> [--app <name>] [--windows N] [--stats]
    /// [--json] [--characterization <file>]` — run the online adaptation
    /// controller over the app's phased variant and compare it against
    /// the static models and the per-phase oracle.
    Adapt {
        /// Board name.
        board: String,
        /// Application name (`shwfs`, `orb`, `lane`).
        app: String,
        /// Windows per phase.
        windows: u32,
        /// Append the controller's counters.
        stats: bool,
        /// Print the full adaptation report as JSON.
        json: bool,
        /// A cached characterization file (skips the micro-benchmarks).
        characterization: Option<String>,
    },
    /// `icomm chaos <board> [--app <name>] [--plan <spec>] [--seed N]...
    /// [--windows N] [--fleet] [--json]` — run a deterministic
    /// fault-injection campaign over the adaptation stack and report
    /// survival, regret inflation, and safe-fallback activations; with
    /// `--fleet`, run the plan's fleet-scale knobs (churn, registry
    /// poisoning, shard panics) through a full fleet campaign per seed
    /// instead.
    Chaos {
        /// Board name.
        board: String,
        /// Application name (`shwfs`, `orb`, `lane`).
        app: String,
        /// Fault-plan spec: a preset (`none`, `noise`, `loss`,
        /// `corrupt`, `hostile`, `full`) plus optional `knob=value`
        /// overrides.
        plan: String,
        /// Campaign seeds (one campaign per seed).
        seeds: Vec<u64>,
        /// Windows per phase.
        windows: u32,
        /// Run the fleet-scale campaign (churn / poisoning / shard
        /// panics against the serving stack) instead of the
        /// single-device adaptation campaign.
        fleet: bool,
        /// Print the full reports as JSON.
        json: bool,
    },
    /// `icomm compare <board> <app>` — run the application under every
    /// model (including the SC+ extension) and print the comparison.
    Compare {
        /// Board name.
        board: String,
        /// Application name.
        app: String,
    },
    /// `icomm experiments` — regenerate every table/figure of the paper.
    Experiments,
    /// `icomm serve [--addr <ip:port>] [--wire json|binary] [--workers N]
    /// [--registry <file>] [--full] [--stats]` — run the tuning service
    /// over TCP.
    Serve {
        /// Listen address.
        addr: String,
        /// Wire protocol: `json` (one request per line) or `binary`
        /// (`icommwire v1` frames), both on the event-driven plane.
        wire: WireMode,
        /// Worker-pool size.
        workers: usize,
        /// Registry snapshot file for warm starts and shutdown persistence.
        registry: Option<String>,
        /// Run the full characterization sweep instead of the quick one.
        full: bool,
        /// Print service metrics periodically.
        stats: bool,
    },
    /// `icomm servebench [--requests N] [--conns N] [--workers N]
    /// [--batch N] [--hostile] [--json]` — run a JSON and a binary
    /// listener side by side over one shared service and report
    /// throughput, tail latency, decision parity, and (with `--hostile`)
    /// hostile-client survival.
    Servebench {
        /// Requests per plane.
        requests: usize,
        /// Concurrent load-generator connections.
        conns: usize,
        /// Worker-pool size (shared service).
        workers: usize,
        /// Requests per binary `Batch` frame.
        batch: usize,
        /// Also fire the hostile clients at both listeners and report the
        /// fault counters.
        hostile: bool,
        /// Print the report as JSON.
        json: bool,
    },
    /// `icomm batch [<file>] [--workers N] [--registry <file>] [--full]
    /// [--stats]` — serve a batch of line-JSON requests from a file (or
    /// stdin) and print one response per line.
    Batch {
        /// Request file; stdin when absent.
        file: Option<String>,
        /// Worker-pool size.
        workers: usize,
        /// Registry snapshot file for warm starts and shutdown persistence.
        registry: Option<String>,
        /// Run the full characterization sweep instead of the quick one.
        full: bool,
        /// Append a metrics summary after the responses.
        stats: bool,
    },
    /// `icomm fleet <board-mix> [--devices N] [--arrival poisson|burst]
    /// [--rate R] [--seed S] [--tenants N] [--wire json|binary]
    /// [--faults <spec>] [--json]` — simulate a clustered device fleet
    /// hammering the tuning service (admission control, federated
    /// characterization transfer) and report warm-start rate, tail
    /// latency, shed counts, and transfer regret; with `--tenants 2..4`
    /// every served device also co-schedules a tenant mix of that size
    /// off its registry-resolved characterization; `--faults` injects
    /// the plan's churn / poisoning / shard-panic knobs into the run.
    Fleet {
        /// Comma-separated board mix (`nano,tx2,xavier`).
        mix: String,
        /// Population size.
        devices: usize,
        /// Arrival-process preset (`poisson` / `burst`).
        arrival: String,
        /// Mean arrival rate, requests per second.
        rate: f64,
        /// Seed for the population and schedule.
        seed: u64,
        /// Tenants co-hosted per served device (1 = single-tenant).
        tenants: usize,
        /// Wire protocol the live-fire stage drives (`json` / `binary`).
        wire: WireMode,
        /// Fault-plan spec for the fleet knobs, e.g.
        /// `none,churn_prob=0.1,poison_prob=0.1,shard_panics=2`.
        faults: String,
        /// Per-device memory cap in bytes for the multi-tenant stage
        /// (`None` = each board's stock DRAM budget).
        mem_cap: Option<u64>,
        /// Print the deterministic fleet report as JSON.
        json: bool,
    },
    /// `icomm sched <board> [--mix <name>] [--policy fifo|deadline]
    /// [--seed N] [--windows N] [--json]` — co-schedule a named tenant
    /// mix on one board: jointly assign communication models under the
    /// cross-tenant interference model, run the periodic schedule in
    /// virtual time, and report per-tenant deadline misses, slowdown vs
    /// solo, and bandwidth throttles.
    Sched {
        /// Board name.
        board: String,
        /// Tenant-mix name (`duo`, `trio`, `quad`, `contended`,
        /// `pressure`).
        mix: String,
        /// Scheduling policy (`fifo` / `deadline`).
        policy: String,
        /// Seed for the release phase offsets.
        seed: u64,
        /// Jobs each tenant releases.
        windows: u32,
        /// Memory cap admission runs under, bytes (`None` = the board's
        /// stock DRAM budget).
        mem_cap: Option<u64>,
        /// Print the deterministic scheduler report as JSON.
        json: bool,
    },
    /// `icomm synth <board|all> [--mix <name>]... [--max-size N]
    /// [--seed N] [--save <file>] [--json]` — sweep the deterministic
    /// simulators, synthesize algebraic decision rules from the sweep,
    /// validate them against the brute-force oracle, and report the
    /// rule set, its verified scope, and the compression ratio.
    Synth {
        /// Board name, or `all` for every stock board.
        board: String,
        /// Sweep contexts (`solo:<app>`, `duo`, `trio`, `quad`,
        /// `contended`, `pressure`); empty runs the full default sweep.
        mixes: Vec<String>,
        /// Largest predicate term size to enumerate.
        max_size: u32,
        /// Enumeration-order seed (same seed → byte-identical rules).
        seed: u64,
        /// Write the CRC-framed rule-set snapshot here.
        save: Option<String>,
        /// Print the deterministic synthesis report as JSON.
        json: bool,
    },
    /// `icomm help` / no arguments.
    Help,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// Resolves a board name (case-insensitive, several aliases).
pub fn board_by_name(name: &str) -> Option<DeviceProfile> {
    match name.to_ascii_lowercase().as_str() {
        "nano" | "jetson-nano" => Some(DeviceProfile::jetson_nano()),
        "tx2" | "jetson-tx2" => Some(DeviceProfile::jetson_tx2()),
        "xavier" | "agx-xavier" | "jetson-agx-xavier" => Some(DeviceProfile::jetson_agx_xavier()),
        "orin" | "orin-like" => Some(DeviceProfile::orin_like()),
        "mi300a" | "mi300a-like" => Some(DeviceProfile::mi300a_like()),
        "gh" | "gh-like" | "grace-hopper-like" => Some(DeviceProfile::gh_like()),
        _ => None,
    }
}

/// The board names `board_by_name` accepts (canonical forms).
pub const BOARD_NAMES: [&str; 6] = [
    "nano",
    "tx2",
    "xavier",
    "orin-like",
    "mi300a-like",
    "gh-like",
];

/// The application names the CLI knows.
pub const APP_NAMES: [&str; 3] = ["shwfs", "orb", "lane"];

fn model_by_name(name: &str) -> Option<CommModelKind> {
    match name.to_ascii_lowercase().as_str() {
        "sc" | "standard-copy" => Some(CommModelKind::StandardCopy),
        "um" | "unified-memory" => Some(CommModelKind::UnifiedMemory),
        "zc" | "zero-copy" => Some(CommModelKind::ZeroCopy),
        "sc+" | "sc-async" | "double-buffered" => Some(CommModelKind::StandardCopyAsync),
        "upm" | "coherent-upm" | "coherent-unified-memory" => Some(CommModelKind::CoherentUpm),
        _ => None,
    }
}

/// Parses the argument vector (without the program name).
///
/// # Errors
///
/// Returns a message suitable for printing when the arguments do not form
/// a valid command.
pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "boards" => Ok(Command::Boards),
        "characterize" => {
            let board = it
                .next()
                .ok_or_else(|| ParseArgsError("characterize needs a board name".into()))?;
            ensure_board(board)?;
            let mut save = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--save" => {
                        save = Some(
                            it.next()
                                .ok_or_else(|| ParseArgsError("--save needs a file path".into()))?
                                .clone(),
                        );
                    }
                    other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Characterize {
                board: board.clone(),
                save,
            })
        }
        "tune" => {
            let board = it
                .next()
                .ok_or_else(|| ParseArgsError("tune needs a board name".into()))?;
            ensure_board(board)?;
            let app = it
                .next()
                .ok_or_else(|| ParseArgsError("tune needs an app name".into()))?;
            ensure_app(app)?;
            let mut current = CommModelKind::StandardCopy;
            let mut pages = None;
            let mut characterization = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--current" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError("--current needs a model (sc|um|zc)".into())
                        })?;
                        current = model_by_name(value).ok_or_else(|| {
                            ParseArgsError(format!("unknown model '{value}' (sc|um|zc|sc+|upm)"))
                        })?;
                    }
                    "--pages" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError("--pages needs a size (4k|64k|2m)".into())
                        })?;
                        pages = Some(PageSize::parse(value).ok_or_else(|| {
                            ParseArgsError(format!("unknown page size '{value}' (4k|64k|2m)"))
                        })?);
                    }
                    "--characterization" => {
                        characterization = Some(
                            it.next()
                                .ok_or_else(|| {
                                    ParseArgsError("--characterization needs a file path".into())
                                })?
                                .clone(),
                        );
                    }
                    "--json" => json = true,
                    other => {
                        return Err(ParseArgsError(format!("unknown flag '{other}'")));
                    }
                }
            }
            Ok(Command::Tune {
                board: board.clone(),
                app: app.clone(),
                current,
                pages,
                characterization,
                json,
            })
        }
        "adapt" => {
            let board = it
                .next()
                .ok_or_else(|| ParseArgsError("adapt needs a board name".into()))?;
            ensure_board(board)?;
            let mut app = "shwfs".to_string();
            let mut windows = 8u32;
            let mut stats = false;
            let mut json = false;
            let mut characterization = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--app" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--app needs an app name".into()))?;
                        ensure_app(value)?;
                        app = value.clone();
                    }
                    "--windows" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--windows needs a count".into()))?;
                        windows =
                            value
                                .parse::<u32>()
                                .ok()
                                .filter(|n| *n > 0)
                                .ok_or_else(|| {
                                    ParseArgsError(format!(
                                        "--windows needs a positive count, got '{value}'"
                                    ))
                                })?;
                    }
                    "--stats" => stats = true,
                    "--json" => json = true,
                    "--characterization" => {
                        characterization = Some(
                            it.next()
                                .ok_or_else(|| {
                                    ParseArgsError("--characterization needs a file path".into())
                                })?
                                .clone(),
                        );
                    }
                    other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Adapt {
                board: board.clone(),
                app,
                windows,
                stats,
                json,
                characterization,
            })
        }
        "chaos" => {
            let board = it
                .next()
                .ok_or_else(|| ParseArgsError("chaos needs a board name".into()))?;
            ensure_board(board)?;
            let mut app = "shwfs".to_string();
            let mut plan = "full".to_string();
            let mut seeds = Vec::new();
            let mut windows = 8u32;
            let mut fleet = false;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--app" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--app needs an app name".into()))?;
                        ensure_app(value)?;
                        app = value.clone();
                    }
                    "--plan" => {
                        plan = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--plan needs a fault spec".into()))?
                            .clone();
                    }
                    "--seed" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--seed needs a number".into()))?;
                        seeds.push(value.parse::<u64>().map_err(|_| {
                            ParseArgsError(format!("--seed needs a number, got '{value}'"))
                        })?);
                    }
                    "--windows" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--windows needs a count".into()))?;
                        windows =
                            value
                                .parse::<u32>()
                                .ok()
                                .filter(|n| *n > 0)
                                .ok_or_else(|| {
                                    ParseArgsError(format!(
                                        "--windows needs a positive count, got '{value}'"
                                    ))
                                })?;
                    }
                    "--fleet" => fleet = true,
                    "--json" => json = true,
                    other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
                }
            }
            if seeds.is_empty() {
                seeds.push(42);
            }
            Ok(Command::Chaos {
                board: board.clone(),
                app,
                plan,
                seeds,
                windows,
                fleet,
                json,
            })
        }
        "compare" => {
            let board = it
                .next()
                .ok_or_else(|| ParseArgsError("compare needs a board name".into()))?;
            ensure_board(board)?;
            let app = it
                .next()
                .ok_or_else(|| ParseArgsError("compare needs an app name".into()))?;
            ensure_app(app)?;
            Ok(Command::Compare {
                board: board.clone(),
                app: app.clone(),
            })
        }
        "experiments" => Ok(Command::Experiments),
        "serve" => {
            let mut addr = "127.0.0.1:7311".to_string();
            let mut wire = WireMode::Json;
            let mut options = ServiceOptions::default();
            while let Some(flag) = it.next() {
                if flag == "--addr" {
                    addr = it
                        .next()
                        .ok_or_else(|| ParseArgsError("--addr needs an ip:port".into()))?
                        .clone();
                } else if flag == "--wire" {
                    let value = it
                        .next()
                        .ok_or_else(|| ParseArgsError("--wire needs json|binary".into()))?;
                    wire = WireMode::parse(&value.to_ascii_lowercase()).map_err(ParseArgsError)?;
                } else {
                    options.accept(flag, &mut it)?;
                }
            }
            Ok(Command::Serve {
                addr,
                wire,
                workers: options.workers,
                registry: options.registry,
                full: options.full,
                stats: options.stats,
            })
        }
        "servebench" => {
            let mut requests = 2_000usize;
            let mut conns = 8usize;
            let mut workers = 4usize;
            let mut batch = 16usize;
            let mut hostile = false;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--requests" | "--conns" | "--workers" | "--batch" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError(format!("{flag} needs a positive count"))
                        })?;
                        let parsed =
                            value
                                .parse::<usize>()
                                .ok()
                                .filter(|n| *n > 0)
                                .ok_or_else(|| {
                                    ParseArgsError(format!(
                                        "{flag} needs a positive count, got '{value}'"
                                    ))
                                })?;
                        match flag.as_str() {
                            "--requests" => requests = parsed,
                            "--conns" => conns = parsed,
                            "--workers" => workers = parsed,
                            _ => batch = parsed,
                        }
                    }
                    "--hostile" => hostile = true,
                    "--json" => json = true,
                    other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Servebench {
                requests,
                conns,
                workers,
                batch,
                hostile,
                json,
            })
        }
        "batch" => {
            let mut file = None;
            let mut options = ServiceOptions::default();
            while let Some(flag) = it.next() {
                if flag.starts_with("--") {
                    options.accept(flag, &mut it)?;
                } else if file.is_none() {
                    file = Some(flag.clone());
                } else {
                    return Err(ParseArgsError(format!(
                        "batch takes one request file, got '{flag}' too"
                    )));
                }
            }
            Ok(Command::Batch {
                file,
                workers: options.workers,
                registry: options.registry,
                full: options.full,
                stats: options.stats,
            })
        }
        "fleet" => {
            let mix = it.next().ok_or_else(|| {
                ParseArgsError(
                    "fleet needs a comma-separated board mix (e.g. nano,tx2,xavier)".into(),
                )
            })?;
            for part in mix.split(',') {
                let name = part.trim();
                if !name.is_empty() {
                    ensure_board(name)?;
                }
            }
            let mut devices = 256usize;
            let mut arrival = "poisson".to_string();
            let mut rate = 400.0f64;
            let mut seed = 7u64;
            let mut tenants = 1usize;
            let mut wire = WireMode::Json;
            let mut faults = "none".to_string();
            let mut mem_cap = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--devices" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--devices needs a count".into()))?;
                        devices =
                            value
                                .parse::<usize>()
                                .ok()
                                .filter(|n| *n > 0)
                                .ok_or_else(|| {
                                    ParseArgsError(format!(
                                        "--devices needs a positive count, got '{value}'"
                                    ))
                                })?;
                    }
                    "--arrival" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError("--arrival needs a process (poisson|burst)".into())
                        })?;
                        match value.to_ascii_lowercase().as_str() {
                            "poisson" | "burst" | "bursty" => arrival = value.clone(),
                            other => {
                                return Err(ParseArgsError(format!(
                                    "unknown arrival process '{other}' (poisson|burst)"
                                )))
                            }
                        }
                    }
                    "--rate" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--rate needs requests/sec".into()))?;
                        rate = value
                            .parse::<f64>()
                            .ok()
                            .filter(|r| *r > 0.0)
                            .ok_or_else(|| {
                                ParseArgsError(format!(
                                    "--rate needs a positive requests/sec, got '{value}'"
                                ))
                            })?;
                    }
                    "--seed" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--seed needs a number".into()))?;
                        seed = value.parse::<u64>().map_err(|_| {
                            ParseArgsError(format!("--seed needs a number, got '{value}'"))
                        })?;
                    }
                    "--tenants" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--tenants needs a count".into()))?;
                        tenants = value
                            .parse::<usize>()
                            .ok()
                            .filter(|n| (1..=4).contains(n))
                            .ok_or_else(|| {
                                ParseArgsError(format!(
                                    "--tenants needs a count between 1 and 4, got '{value}'"
                                ))
                            })?;
                    }
                    "--wire" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--wire needs json|binary".into()))?;
                        wire =
                            WireMode::parse(&value.to_ascii_lowercase()).map_err(ParseArgsError)?;
                    }
                    "--faults" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError("--faults needs a fault-plan spec".into())
                        })?;
                        // Fail fast on a bad spec; the run re-parses it.
                        icomm_chaos::FaultPlan::parse(value).map_err(ParseArgsError)?;
                        faults = value.clone();
                    }
                    "--mem-cap" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError("--mem-cap needs a size (e.g. 6m, 512k, 2g)".into())
                        })?;
                        let cap = icomm_footprint::parse_cap(value)
                            .map_err(|e| ParseArgsError(format!("--mem-cap: {e}")))?;
                        mem_cap = Some(cap.as_u64());
                    }
                    "--json" => json = true,
                    other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Fleet {
                mix: mix.clone(),
                devices,
                arrival,
                rate,
                seed,
                tenants,
                wire,
                faults,
                mem_cap,
                json,
            })
        }
        "sched" => {
            let board = it
                .next()
                .ok_or_else(|| ParseArgsError("sched needs a board name".into()))?;
            ensure_board(board)?;
            let mut mix = "contended".to_string();
            let mut policy = "deadline".to_string();
            let mut seed = 42u64;
            let mut windows = 8u32;
            let mut mem_cap = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--mix" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--mix needs a mix name".into()))?;
                        if !icomm_apps::MIX_NAMES.contains(&value.to_ascii_lowercase().as_str()) {
                            return Err(ParseArgsError(format!(
                                "unknown mix '{value}' (known: {})",
                                icomm_apps::MIX_NAMES.join(", ")
                            )));
                        }
                        mix = value.to_ascii_lowercase();
                    }
                    "--policy" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError("--policy needs a policy (fifo|deadline)".into())
                        })?;
                        policy = icomm_sched::PolicyKind::parse(value)
                            .map_err(ParseArgsError)?
                            .name()
                            .to_string();
                    }
                    "--seed" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--seed needs a number".into()))?;
                        seed = value.parse::<u64>().map_err(|_| {
                            ParseArgsError(format!("--seed needs a number, got '{value}'"))
                        })?;
                    }
                    "--windows" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--windows needs a count".into()))?;
                        windows =
                            value
                                .parse::<u32>()
                                .ok()
                                .filter(|n| *n > 0)
                                .ok_or_else(|| {
                                    ParseArgsError(format!(
                                        "--windows needs a positive count, got '{value}'"
                                    ))
                                })?;
                    }
                    "--mem-cap" => {
                        let value = it.next().ok_or_else(|| {
                            ParseArgsError("--mem-cap needs a size (e.g. 6m, 512k, 2g)".into())
                        })?;
                        let cap = icomm_footprint::parse_cap(value)
                            .map_err(|e| ParseArgsError(format!("--mem-cap: {e}")))?;
                        mem_cap = Some(cap.as_u64());
                    }
                    "--json" => json = true,
                    other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Sched {
                board: board.clone(),
                mix,
                policy,
                seed,
                windows,
                mem_cap,
                json,
            })
        }
        "synth" => {
            let board = it
                .next()
                .ok_or_else(|| ParseArgsError("synth needs a board name (or 'all')".into()))?;
            if board != "all" {
                ensure_board(board)?;
            }
            let mut mixes = Vec::new();
            let mut max_size = 3u32;
            let mut seed = 42u64;
            let mut save = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--mix" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--mix needs a mix name".into()))?
                            .to_ascii_lowercase();
                        if !icomm_synth::SWEEP_MIX_NAMES.contains(&value.as_str()) {
                            return Err(ParseArgsError(format!(
                                "unknown sweep mix '{value}' (known: {})",
                                icomm_synth::SWEEP_MIX_NAMES.join(", ")
                            )));
                        }
                        mixes.push(value);
                    }
                    "--max-size" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--max-size needs a size".into()))?;
                        // Term growth is combinatorial; 4 is already past
                        // the point of diminishing returns on this table.
                        max_size = value
                            .parse::<u32>()
                            .ok()
                            .filter(|n| (1..=4).contains(n))
                            .ok_or_else(|| {
                                ParseArgsError(format!(
                                    "--max-size needs a size between 1 and 4, got '{value}'"
                                ))
                            })?;
                    }
                    "--seed" => {
                        let value = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--seed needs a number".into()))?;
                        seed = value.parse::<u64>().map_err(|_| {
                            ParseArgsError(format!("--seed needs a number, got '{value}'"))
                        })?;
                    }
                    "--save" => {
                        save = Some(
                            it.next()
                                .ok_or_else(|| ParseArgsError("--save needs a file path".into()))?
                                .clone(),
                        );
                    }
                    "--json" => json = true,
                    other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Synth {
                board: board.clone(),
                mixes,
                max_size,
                seed,
                save,
                json,
            })
        }
        other => Err(ParseArgsError(format!(
            "unknown command '{other}' (try `icomm help`)"
        ))),
    }
}

/// Flags shared by `serve` and `batch`.
struct ServiceOptions {
    workers: usize,
    registry: Option<String>,
    full: bool,
    stats: bool,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 4,
            registry: None,
            full: false,
            stats: false,
        }
    }
}

impl ServiceOptions {
    fn accept(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<(), ParseArgsError> {
        match flag {
            "--workers" => {
                let value = it
                    .next()
                    .ok_or_else(|| ParseArgsError("--workers needs a count".into()))?;
                self.workers = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| {
                        ParseArgsError(format!("--workers needs a positive count, got '{value}'"))
                    })?;
            }
            "--registry" => {
                self.registry = Some(
                    it.next()
                        .ok_or_else(|| ParseArgsError("--registry needs a file path".into()))?
                        .clone(),
                );
            }
            "--full" => self.full = true,
            "--stats" => self.stats = true,
            other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
        }
        Ok(())
    }
}

fn ensure_board(name: &str) -> Result<(), ParseArgsError> {
    if board_by_name(name).is_some() {
        Ok(())
    } else {
        Err(ParseArgsError(format!(
            "unknown board '{name}' (known: {})",
            BOARD_NAMES.join(", ")
        )))
    }
}

fn ensure_app(name: &str) -> Result<(), ParseArgsError> {
    if APP_NAMES.contains(&name.to_ascii_lowercase().as_str()) {
        Ok(())
    } else {
        Err(ParseArgsError(format!(
            "unknown app '{name}' (known: {})",
            APP_NAMES.join(", ")
        )))
    }
}

/// The help text.
pub const HELP: &str = "\
icomm — tune CPU-iGPU communication on embedded platforms

USAGE:
    icomm boards
    icomm characterize <board> [--save <file>]
    icomm tune <board> <app> [--current sc|um|zc|sc+|upm]
                             [--pages 4k|64k|2m] [--json]
                             [--characterization <file>]
    icomm adapt <board> [--app <name>] [--windows N] [--stats] [--json]
                        [--characterization <file>]
    icomm chaos <board> [--app <name>] [--plan <spec>] [--seed N]...
                        [--windows N] [--fleet] [--json]
    icomm compare <board> <app>
    icomm experiments
    icomm serve [--addr <ip:port>] [--wire json|binary] [--workers N]
                [--registry <file>] [--full] [--stats]
    icomm servebench [--requests N] [--conns N] [--workers N]
                [--batch N] [--hostile] [--json]
    icomm batch [<file>] [--workers N] [--registry <file>]
                [--full] [--stats]
    icomm fleet <board-mix> [--devices N] [--arrival poisson|burst]
                [--rate R] [--seed S] [--tenants N]
                [--wire json|binary] [--faults <spec>]
                [--mem-cap SIZE] [--json]
    icomm sched <board> [--mix <name>] [--policy fifo|deadline]
                [--seed N] [--windows N] [--mem-cap SIZE] [--json]
    icomm synth <board|all> [--mix <name>]... [--max-size N] [--seed N]
                [--save <file>] [--json]
    icomm help

BOARDS:  nano, tx2, xavier, orin-like   (discrete-pool iGPU boards)
         mi300a-like, gh-like           (hardware-coherent memory boards)
APPS:    shwfs (Shack-Hartmann wavefront sensing)
         orb   (ORB feature-extraction front-end)
         lane  (ADAS lane detection)

`characterize` runs the paper's three micro-benchmarks on the simulated
board (plus a coherent-memory probe on boards that support it). `tune`
profiles the chosen application and prints the framework's
communication-model verdict (`--json` for machine-readable output); on
hardware-coherent boards the candidate set gains `upm` (coherent unified
memory: system allocation, no copies or migrations), and `--pages`
re-maps the shared allocation with 4K/64K/2M pages — huge pages shrink
TLB pressure and can flip the UM-vs-UPM verdict. `compare` measures
every model as ground truth. `adapt` runs the online
phase-aware controller over the app's three-phase variant (N windows per
phase) and reports switches, detection latency, and regret against the
per-phase oracle. `experiments` regenerates every table and figure of
the paper.

`chaos` replays a seeded fault-injection campaign against the adaptation
stack (counter noise, NaN/Inf, dropped/duplicated/reordered windows,
stalls, snapshot corruption) and reports survival, regret inflation vs
the fault-free run, and safe fallbacks to SC. Plans are a preset name —
none, noise, loss, corrupt, hostile, full — optionally tuned with
knob=value overrides, e.g. `--plan loss,drop_prob=0.4`. One campaign per
`--seed`; identical seeds produce byte-identical reports. With `--fleet`
the campaign instead drives the plan's fleet-scale knobs — `churn_prob`
(crash-and-rejoin eviction), `poison_prob` (adversarial registry
uploads), `shard_panics` (live-fire shard crashes) — through a full
fleet run per seed on the supervised binary plane and reports survival
through the fleet pass gate.

`serve` runs the tuning service over TCP (default 127.0.0.1:7311).
Both wires run on the same event-driven plane — per-core shard event
loops, batched submission into the worker pool. `--wire json` (the
default) speaks one JSON request per line and decides every request;
`--wire binary` speaks `icommwire v1` length-prefixed CRC-checked
frames and answers repeats from a shard-local decision cache. `batch`
answers a file (or stdin) of line-JSON requests in one shot. All modes
memoize device characterizations in a shared registry; `--registry
<file>` persists it across runs, `--full` trades latency for the
full-resolution sweep, and `--stats` reports cache hit rate, queue
depth, and latency histograms. `servebench` races the two planes over
one shared service and reports requests/sec, p50/p99, and decision
parity (`--hostile` also fires malformed-frame and malformed-line
clients and reports the fault counters).

`fleet` synthesizes a clustered device population over the board mix
(firmware clusters plus per-unit clock drift), replays a seeded open-loop
arrival schedule through the registry, federated-transfer, and
admission-control stack in virtual time, then live-fires a real TCP
server in-process. It reports warm-start rate, p50/p95/p99 latency, SLO
attainment, shed counts, and the decision regret of transferred vs full
characterizations. With `--tenants 2..4` every served device also
co-schedules a tenant mix of that size off its registry-resolved
characterization and the report gains per-tenant SLO attainment.
`--faults` injects the fleet-scale chaos knobs into the run —
`churn_prob` evicts devices' registry state before their lookup,
`poison_prob` plants adversarial characterizations the Byzantine-robust
transfer path must quarantine, and `shard_panics` crashes live-fire
shard event loops mid-frame (requires `--wire binary`, whose resilient
client retries the lost requests). The same seed replays byte-identically, faults
included (`--json` prints only the deterministic report).

`sched` co-schedules a named tenant mix — duo, trio, quad, contended,
pressure — on one board. Communication models are assigned jointly
(every combination scored under the cross-tenant interference model, so
a zero-copy neighbour's channel pressure can flip a tenant off its solo
best), then the periodic schedule runs in virtual time under `--policy`:
`fifo` (release order, no regulation) or `deadline` (EDF slots plus a
MemGuard-style per-tenant bandwidth budget). Reports per-tenant
deadline-miss rate, slowdown vs solo, and throttle counts; identical
seeds replay byte-identically.

`synth` distills the brute-force decision stack into a handful of
human-readable algebraic rules: it sweeps the deterministic simulators
over the chosen boards and tenant mixes (`--mix` repeats; the default
sweep runs every solo app, every named co-run mix, and a memory-capped
`pressure` context), labels every tenant with the brute-force oracle's
model choice, enumerates guard predicates bottom-up by term size over
the characterization/workload feature grammar (observational
equivalence collapses candidates that behave identically on the
sweep), and greedily selects the fewest sound rules that cover every
sample. The rule set is re-validated rule-for-rule against the oracle —
contexts with any disagreement are excluded from its verified scope —
and `--save` writes it as a CRC-framed snapshot that `fleet` can serve
warm starts from. Same seed, same rules, byte for byte.

`--mem-cap SIZE` (sizes like `6m`, `512k`, `2g`; both `sched` and
`fleet` take it) bounds the summed memory footprint of the admitted mix:
the joint assignment re-solves under the cap (demoting tenants toward
cheaper-footprint models when the double-buffered optima do not fit),
and if even full demotion cannot fit, admission evicts
largest-footprint tenants first and reports the spill. Uncapped runs
admit against the board's stock DRAM budget, which the paper-scale
mixes never approach.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn boards_command() {
        assert_eq!(parse(&v(&["boards"])).unwrap(), Command::Boards);
    }

    #[test]
    fn characterize_parses_board() {
        let c = parse(&v(&["characterize", "tx2"])).unwrap();
        assert_eq!(
            c,
            Command::Characterize {
                board: "tx2".into(),
                save: None,
            }
        );
        let c = parse(&v(&["characterize", "tx2", "--save", "c.json"])).unwrap();
        assert_eq!(
            c,
            Command::Characterize {
                board: "tx2".into(),
                save: Some("c.json".into()),
            }
        );
    }

    #[test]
    fn characterize_rejects_unknown_board() {
        assert!(parse(&v(&["characterize", "pi5"])).is_err());
        assert!(parse(&v(&["characterize"])).is_err());
    }

    #[test]
    fn tune_defaults_to_sc() {
        let c = parse(&v(&["tune", "xavier", "shwfs"])).unwrap();
        assert_eq!(
            c,
            Command::Tune {
                board: "xavier".into(),
                app: "shwfs".into(),
                current: CommModelKind::StandardCopy,
                pages: None,
                characterization: None,
                json: false,
            }
        );
    }

    #[test]
    fn tune_accepts_current_model_and_json() {
        let c = parse(&v(&["tune", "tx2", "orb", "--current", "zc", "--json"])).unwrap();
        assert_eq!(
            c,
            Command::Tune {
                board: "tx2".into(),
                app: "orb".into(),
                current: CommModelKind::ZeroCopy,
                pages: None,
                characterization: None,
                json: true,
            }
        );
    }

    #[test]
    fn tune_accepts_coherent_board_pages_and_upm() {
        let c = parse(&v(&[
            "tune",
            "mi300a-like",
            "shwfs",
            "--current",
            "upm",
            "--pages",
            "2m",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Tune {
                board: "mi300a-like".into(),
                app: "shwfs".into(),
                current: CommModelKind::CoherentUpm,
                pages: Some(PageSize::Huge2M),
                characterization: None,
                json: false,
            }
        );
        assert!(parse(&v(&["tune", "gh-like", "orb", "--pages", "1g"])).is_err());
    }

    #[test]
    fn adapt_parses_defaults_and_flags() {
        let c = parse(&v(&["adapt", "xavier"])).unwrap();
        assert_eq!(
            c,
            Command::Adapt {
                board: "xavier".into(),
                app: "shwfs".into(),
                windows: 8,
                stats: false,
                json: false,
                characterization: None,
            }
        );
        let c = parse(&v(&[
            "adapt",
            "tx2",
            "--app",
            "lane",
            "--windows",
            "12",
            "--stats",
            "--json",
            "--characterization",
            "c.json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Adapt {
                board: "tx2".into(),
                app: "lane".into(),
                windows: 12,
                stats: true,
                json: true,
                characterization: Some("c.json".into()),
            }
        );
    }

    #[test]
    fn adapt_rejects_bad_inputs() {
        assert!(parse(&v(&["adapt"])).is_err());
        assert!(parse(&v(&["adapt", "pi5"])).is_err());
        assert!(parse(&v(&["adapt", "tx2", "--app", "quake"])).is_err());
        assert!(parse(&v(&["adapt", "tx2", "--windows", "0"])).is_err());
        assert!(parse(&v(&["adapt", "tx2", "--wat"])).is_err());
    }

    #[test]
    fn tune_rejects_bad_model_and_flags() {
        assert!(parse(&v(&["tune", "tx2", "orb", "--current", "xyz"])).is_err());
        assert!(parse(&v(&["tune", "tx2", "orb", "--wat"])).is_err());
        assert!(parse(&v(&["tune", "tx2", "nosuchapp"])).is_err());
    }

    #[test]
    fn board_aliases_resolve() {
        assert!(board_by_name("Xavier").is_some());
        assert!(board_by_name("jetson-agx-xavier").is_some());
        assert!(board_by_name("ORIN").is_some());
        assert!(board_by_name("MI300A").is_some());
        assert!(board_by_name("grace-hopper-like").is_some());
        assert!(board_by_name("nope").is_none());
    }

    #[test]
    fn every_canonical_board_name_resolves() {
        for name in BOARD_NAMES {
            assert!(board_by_name(name).is_some(), "board {name}");
        }
    }

    #[test]
    fn chaos_parses_defaults_and_flags() {
        let c = parse(&v(&["chaos", "tx2"])).unwrap();
        assert_eq!(
            c,
            Command::Chaos {
                board: "tx2".into(),
                app: "shwfs".into(),
                plan: "full".into(),
                seeds: vec![42],
                windows: 8,
                fleet: false,
                json: false,
            }
        );
        let c = parse(&v(&[
            "chaos",
            "xavier",
            "--app",
            "lane",
            "--plan",
            "loss,drop_prob=0.4",
            "--seed",
            "1",
            "--seed",
            "2",
            "--windows",
            "10",
            "--fleet",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Chaos {
                board: "xavier".into(),
                app: "lane".into(),
                plan: "loss,drop_prob=0.4".into(),
                seeds: vec![1, 2],
                windows: 10,
                fleet: true,
                json: true,
            }
        );
    }

    #[test]
    fn chaos_rejects_bad_inputs() {
        assert!(parse(&v(&["chaos"])).is_err());
        assert!(parse(&v(&["chaos", "pi5"])).is_err());
        assert!(parse(&v(&["chaos", "tx2", "--seed", "many"])).is_err());
        assert!(parse(&v(&["chaos", "tx2", "--windows", "0"])).is_err());
        assert!(parse(&v(&["chaos", "tx2", "--wat"])).is_err());
    }

    #[test]
    fn serve_parses_defaults_and_flags() {
        let c = parse(&v(&["serve"])).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:7311".into(),
                wire: WireMode::Json,
                workers: 4,
                registry: None,
                full: false,
                stats: false,
            }
        );
        let c = parse(&v(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--wire",
            "binary",
            "--workers",
            "8",
            "--registry",
            "reg.json",
            "--full",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                wire: WireMode::Binary,
                workers: 8,
                registry: Some("reg.json".into()),
                full: true,
                stats: true,
            }
        );
    }

    #[test]
    fn serve_rejects_bad_worker_counts() {
        assert!(parse(&v(&["serve", "--workers", "0"])).is_err());
        assert!(parse(&v(&["serve", "--workers", "many"])).is_err());
        assert!(parse(&v(&["serve", "--wat"])).is_err());
    }

    #[test]
    fn serve_rejects_unknown_wire_protocols() {
        assert!(parse(&v(&["serve", "--wire"])).is_err());
        assert!(parse(&v(&["serve", "--wire", "carrier-pigeon"])).is_err());
    }

    #[test]
    fn servebench_parses_defaults_and_flags() {
        let c = parse(&v(&["servebench"])).unwrap();
        assert_eq!(
            c,
            Command::Servebench {
                requests: 2_000,
                conns: 8,
                workers: 4,
                batch: 16,
                hostile: false,
                json: false,
            }
        );
        let c = parse(&v(&[
            "servebench",
            "--requests",
            "500",
            "--conns",
            "4",
            "--workers",
            "2",
            "--batch",
            "32",
            "--hostile",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Servebench {
                requests: 500,
                conns: 4,
                workers: 2,
                batch: 32,
                hostile: true,
                json: true,
            }
        );
    }

    #[test]
    fn servebench_rejects_bad_counts() {
        assert!(parse(&v(&["servebench", "--requests", "0"])).is_err());
        assert!(parse(&v(&["servebench", "--batch", "lots"])).is_err());
        assert!(parse(&v(&["servebench", "--wat"])).is_err());
    }

    #[test]
    fn batch_parses_file_and_flags() {
        let c = parse(&v(&["batch", "reqs.jsonl", "--stats"])).unwrap();
        assert_eq!(
            c,
            Command::Batch {
                file: Some("reqs.jsonl".into()),
                workers: 4,
                registry: None,
                full: false,
                stats: true,
            }
        );
        assert!(parse(&v(&["batch", "a.jsonl", "b.jsonl"])).is_err());
    }

    #[test]
    fn fleet_parses_defaults_and_flags() {
        let c = parse(&v(&["fleet", "nano,tx2,xavier"])).unwrap();
        assert_eq!(
            c,
            Command::Fleet {
                mix: "nano,tx2,xavier".into(),
                devices: 256,
                arrival: "poisson".into(),
                rate: 400.0,
                seed: 7,
                tenants: 1,
                wire: WireMode::Json,
                faults: "none".into(),
                mem_cap: None,
                json: false,
            }
        );
        let c = parse(&v(&[
            "fleet",
            "nano",
            "--devices",
            "1000",
            "--arrival",
            "burst",
            "--rate",
            "800",
            "--seed",
            "9",
            "--tenants",
            "3",
            "--wire",
            "binary",
            "--faults",
            "none,churn_prob=0.1,poison_prob=0.1,shard_panics=2",
            "--mem-cap",
            "6m",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Fleet {
                mix: "nano".into(),
                devices: 1000,
                arrival: "burst".into(),
                rate: 800.0,
                seed: 9,
                tenants: 3,
                wire: WireMode::Binary,
                faults: "none,churn_prob=0.1,poison_prob=0.1,shard_panics=2".into(),
                mem_cap: Some(6 << 20),
                json: true,
            }
        );
    }

    #[test]
    fn fleet_rejects_bad_inputs() {
        assert!(parse(&v(&["fleet"])).is_err());
        assert!(parse(&v(&["fleet", "nano,pi5"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--devices", "0"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--arrival", "uniform"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--rate", "-3"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--seed", "many"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--tenants", "0"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--tenants", "5"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--faults"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--faults", "none,churn_prob=1.5"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--faults", "gremlins"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--mem-cap"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--mem-cap", "lots"])).is_err());
        assert!(parse(&v(&["fleet", "nano", "--wat"])).is_err());
    }

    #[test]
    fn sched_parses_defaults_and_flags() {
        let c = parse(&v(&["sched", "tx2"])).unwrap();
        assert_eq!(
            c,
            Command::Sched {
                board: "tx2".into(),
                mix: "contended".into(),
                policy: "deadline".into(),
                seed: 42,
                windows: 8,
                mem_cap: None,
                json: false,
            }
        );
        let c = parse(&v(&[
            "sched",
            "nano",
            "--mix",
            "duo",
            "--policy",
            "fifo",
            "--seed",
            "9",
            "--windows",
            "4",
            "--mem-cap",
            "512k",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Sched {
                board: "nano".into(),
                mix: "duo".into(),
                policy: "fifo".into(),
                seed: 9,
                windows: 4,
                mem_cap: Some(512 << 10),
                json: true,
            }
        );
        // Policy aliases normalize to the canonical name.
        let c = parse(&v(&["sched", "tx2", "--policy", "edf"])).unwrap();
        assert!(matches!(c, Command::Sched { policy, .. } if policy == "deadline"));
    }

    #[test]
    fn sched_rejects_bad_inputs() {
        assert!(parse(&v(&["sched"])).is_err());
        assert!(parse(&v(&["sched", "pi5"])).is_err());
        assert!(parse(&v(&["sched", "tx2", "--mix", "solo"])).is_err());
        assert!(parse(&v(&["sched", "tx2", "--policy", "lottery"])).is_err());
        assert!(parse(&v(&["sched", "tx2", "--windows", "0"])).is_err());
        assert!(parse(&v(&["sched", "tx2", "--seed", "many"])).is_err());
        assert!(parse(&v(&["sched", "tx2", "--mem-cap", "-6m"])).is_err());
        assert!(parse(&v(&["sched", "tx2", "--wat"])).is_err());
    }

    #[test]
    fn synth_parses_defaults_and_flags() {
        let c = parse(&v(&["synth", "all"])).unwrap();
        assert_eq!(
            c,
            Command::Synth {
                board: "all".into(),
                mixes: vec![],
                max_size: 3,
                seed: 42,
                save: None,
                json: false,
            }
        );
        let c = parse(&v(&[
            "synth",
            "tx2",
            "--mix",
            "solo:shwfs",
            "--mix",
            "duo",
            "--max-size",
            "2",
            "--seed",
            "9",
            "--save",
            "rules.snap",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Synth {
                board: "tx2".into(),
                mixes: vec!["solo:shwfs".into(), "duo".into()],
                max_size: 2,
                seed: 9,
                save: Some("rules.snap".into()),
                json: true,
            }
        );
    }

    #[test]
    fn synth_rejects_bad_inputs() {
        assert!(parse(&v(&["synth"])).is_err());
        assert!(parse(&v(&["synth", "pi5"])).is_err());
        assert!(parse(&v(&["synth", "tx2", "--mix", "solo:quake"])).is_err());
        assert!(parse(&v(&["synth", "tx2", "--max-size", "0"])).is_err());
        assert!(parse(&v(&["synth", "tx2", "--max-size", "9"])).is_err());
        assert!(parse(&v(&["synth", "tx2", "--seed", "many"])).is_err());
        assert!(parse(&v(&["synth", "tx2", "--save"])).is_err());
        assert!(parse(&v(&["synth", "tx2", "--wat"])).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        let err = parse(&v(&["frobnicate"])).unwrap_err();
        assert!(err.0.contains("unknown command"));
    }
}

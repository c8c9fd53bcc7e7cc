//! Command implementations for the `icomm` CLI.

use std::fmt::Write as _;
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

use icomm_adapt::{evaluate, ControllerConfig};
use icomm_apps::catalog::{board_by_name, workload_by_name, APP_NAMES, BOARD_NAMES};
use icomm_apps::{LaneApp, OrbApp, ShwfsApp};
use icomm_bench::experiments::{self, CharacterizationSet};
use icomm_bench::{ablation, ExperimentReport};
use icomm_core::Tuner;
use icomm_microbench::{characterize_device, quick_characterize_device, DeviceCharacterization};
use icomm_models::{run_model, CommModelKind, PhasedWorkload};
use icomm_net::{
    run_load, warmup, BinaryClient, JsonClient, LoadReport, NetConfig, Server, WireMode,
};
use icomm_serve::{AdmissionConfig, ServiceConfig, TuneRequest, TuneResponse, TuningService};
use icomm_soc::units::ByteSize;
use icomm_soc::PageSize;
use serde::Serialize;

use crate::args::{Command, HELP};

/// Builds the three-phase workload variant for an application name.
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn phased_workload_by_name(
    app: &str,
    windows_per_phase: u32,
) -> Result<PhasedWorkload, String> {
    match app.to_ascii_lowercase().as_str() {
        "shwfs" => Ok(ShwfsApp::default().phased_workload(windows_per_phase)),
        "orb" => Ok(OrbApp::default().phased_workload(windows_per_phase)),
        "lane" => Ok(LaneApp::default().phased_workload(windows_per_phase)),
        other => Err(format!(
            "unknown app '{other}' (known: {})",
            APP_NAMES.join(", ")
        )),
    }
}

/// Executes a parsed command and returns the text to print.
///
/// # Errors
///
/// Returns a user-facing message; the binary prints it and exits
/// non-zero.
pub fn execute(command: &Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(HELP.to_string()),
        Command::Boards => Ok(boards()),
        Command::Characterize { board, save } => characterize(board, save.as_deref()),
        Command::Tune {
            board,
            app,
            current,
            pages,
            json,
            characterization,
        } => tune(
            board,
            app,
            *current,
            *pages,
            *json,
            characterization.as_deref(),
        ),
        Command::Adapt {
            board,
            app,
            windows,
            stats,
            json,
            characterization,
        } => adapt(
            board,
            app,
            *windows,
            *stats,
            *json,
            characterization.as_deref(),
        ),
        Command::Chaos {
            board,
            app,
            plan,
            seeds,
            windows,
            fleet,
            json,
        } => chaos(board, app, plan, seeds, *windows, *fleet, *json),
        Command::Compare { board, app } => compare(board, app),
        Command::Experiments => run_experiments(),
        Command::Serve {
            addr,
            wire,
            workers,
            registry,
            full,
            stats,
        } => serve(addr, *wire, *workers, registry.as_deref(), *full, *stats),
        Command::Servebench {
            requests,
            conns,
            workers,
            batch,
            hostile,
            json,
        } => servebench(*requests, *conns, *workers, *batch, *hostile, *json),
        Command::Batch {
            file,
            workers,
            registry,
            full,
            stats,
        } => batch(
            file.as_deref(),
            *workers,
            registry.as_deref(),
            *full,
            *stats,
        ),
        Command::Fleet {
            mix,
            devices,
            arrival,
            rate,
            seed,
            tenants,
            wire,
            faults,
            mem_cap,
            json,
        } => fleet(
            mix, *devices, arrival, *rate, *seed, *tenants, *wire, faults, *mem_cap, *json,
        ),
        Command::Sched {
            board,
            mix,
            policy,
            seed,
            windows,
            mem_cap,
            json,
        } => sched(board, mix, policy, *seed, *windows, *mem_cap, *json),
        Command::Synth {
            board,
            mixes,
            max_size,
            seed,
            save,
            json,
        } => synth(board, mixes, *max_size, *seed, save.as_deref(), *json),
    }
}

fn boards() -> String {
    let mut out = String::from("built-in boards:\n");
    for name in BOARD_NAMES {
        let Ok(device) = board_by_name(name) else {
            // A catalog name without a profile is a wiring bug; surface
            // it in the listing instead of aborting the whole command.
            let _ = writeln!(out, "  {name:<10} (unresolvable board name)");
            continue;
        };
        let _ = writeln!(
            out,
            "  {:<10} {} — {} SMs @ {}, DRAM {}, {}",
            name,
            device.name,
            device.gpu.sm_count,
            device.gpu.freq,
            device.dram.peak_bandwidth,
            if device.is_io_coherent() {
                "HW I/O coherent"
            } else {
                "no I/O coherence (ZC bypasses CPU+GPU caches)"
            },
        );
    }
    out
}

fn characterize(board: &str, save: Option<&str>) -> Result<String, String> {
    let device = board_by_name(board)?;
    let c = characterize_device(&device);
    let mut out = format!("characterization of {}:\n", device.name);
    let _ = writeln!(
        out,
        "  peak GPU cache throughput : {:>9.2} GB/s",
        c.gpu_cache_max_throughput / 1e9
    );
    let _ = writeln!(
        out,
        "  zero-copy path throughput : {:>9.2} GB/s ({:.1}x below peak)",
        c.gpu_zc_throughput / 1e9,
        c.gpu_cache_max_throughput / c.gpu_zc_throughput
    );
    let _ = writeln!(
        out,
        "  GPU cache threshold       : {:>8.1} %",
        c.gpu_cache_threshold_pct
    );
    let _ = writeln!(
        out,
        "  GPU zone-2 limit          : {:>8}",
        c.gpu_cache_zone2_pct
            .map(|v| format!("{v:.1} %"))
            .unwrap_or_else(|| "n/a".into())
    );
    let _ = writeln!(
        out,
        "  CPU cache threshold       : {:>8.1} %",
        c.cpu_cache_threshold_pct
    );
    let _ = writeln!(
        out,
        "  max SC->ZC speedup        : {:>8.2} x{}",
        c.sc_zc_max_speedup,
        if c.zc_viable() {
            ""
        } else {
            "  (zero copy never pays off here)"
        }
    );
    let _ = writeln!(
        out,
        "  max ZC->SC speedup        : {:>8.2} x",
        c.zc_sc_max_speedup
    );
    if c.upm_supported {
        let _ = writeln!(
            out,
            "  UPM kernel penalty        : {:>8.2} x",
            c.upm_kernel_penalty
        );
        let _ = writeln!(
            out,
            "  max UM->UPM speedup       : {:>8.2} x{}",
            c.um_upm_max_speedup,
            if c.um_upm_max_speedup > 1.0 {
                ""
            } else {
                "  (UPM never pays off at this page size)"
            }
        );
    }
    if let Some(path) = save {
        let json =
            icomm_persist::to_string(&c).map_err(|err| format!("cannot serialize: {err}"))?;
        std::fs::write(path, json).map_err(|err| format!("cannot write {path}: {err}"))?;
        let _ = writeln!(out, "saved to {path}");
    }
    Ok(out)
}

fn tune(
    board: &str,
    app: &str,
    current: CommModelKind,
    pages: Option<PageSize>,
    json: bool,
    characterization: Option<&str>,
) -> Result<String, String> {
    let mut device = board_by_name(board)?;
    if let Some(page) = pages {
        device = device.with_page_size(page);
    }
    let workload = workload_by_name(app)?;
    let tuner = match characterization {
        Some(path) => Tuner::with_characterization(device, load_characterization(path)?),
        None => Tuner::new(device),
    };
    let validation = tuner.validate(&workload, current);
    if json {
        let mut out = icomm_persist::to_string(&validation)
            .map_err(|err| format!("cannot serialize validation: {err}"))?;
        out.push('\n');
        return Ok(out);
    }
    Ok(format!(
        "{}\n\nvalidated against ground truth: {}\n",
        validation.recommendation,
        validation.summary()
    ))
}

/// `icomm adapt`: run the online adaptation controller over an
/// application's three-phase workload and report it against the static
/// and oracle baselines.
fn adapt(
    board: &str,
    app: &str,
    windows: u32,
    stats: bool,
    json: bool,
    characterization: Option<&str>,
) -> Result<String, String> {
    let device = board_by_name(board)?;
    let phased = phased_workload_by_name(app, windows)?;
    let c = match characterization {
        Some(path) => load_characterization(path)?,
        None => quick_characterize_device(&device),
    };
    let config = ControllerConfig {
        payload_hint: phased.phases[0].workload.bytes_exchanged(),
        ..ControllerConfig::default()
    };
    let report = evaluate(&device, &c, &phased, config);
    if json {
        let mut out = icomm_persist::to_string(&report)
            .map_err(|err| format!("cannot serialize report: {err}"))?;
        out.push('\n');
        return Ok(out);
    }
    let mut out = format!("{report}\n");
    if stats {
        let _ = writeln!(out, "--- stats ---");
        let _ = writeln!(out, "{}", report.stats);
    }
    Ok(out)
}

/// `icomm chaos`: replay a seeded fault-injection campaign and report
/// survival, regret inflation, and safe-fallback activations.
#[allow(clippy::too_many_arguments)]
fn chaos(
    board: &str,
    app: &str,
    plan_spec: &str,
    seeds: &[u64],
    windows: u32,
    fleet: bool,
    json: bool,
) -> Result<String, String> {
    let device = board_by_name(board)?;
    let plan = icomm_chaos::FaultPlan::parse(plan_spec)?;
    if fleet {
        return chaos_fleet(board, &plan, seeds, json);
    }
    let phased = phased_workload_by_name(app, windows)?;
    let characterization = quick_characterize_device(&device);
    let reports = icomm_chaos::chaos_matrix(&device, &characterization, &phased, &plan, seeds);
    if json {
        let mut out = icomm_persist::to_string(&reports)
            .map_err(|err| format!("cannot serialize reports: {err}"))?;
        out.push('\n');
        return Ok(out);
    }
    let mut out = String::new();
    for report in &reports {
        let _ = writeln!(out, "{report}");
    }
    let _ = writeln!(out, "--- matrix ---");
    let _ = write!(out, "{}", icomm_chaos::render_matrix(&reports));
    if reports.iter().all(icomm_chaos::ChaosReport::passed) {
        Ok(out)
    } else {
        Err(format!("chaos campaign FAILED\n\n{out}"))
    }
}

/// `icomm chaos --fleet`: drive the plan's fleet-scale knobs (churn,
/// registry poisoning, shard panics) through a full fleet campaign per
/// seed. The live-fire slice always runs on the supervised binary plane
/// so injected shard panics have a supervisor to recover them.
fn chaos_fleet(
    board: &str,
    plan: &icomm_chaos::FaultPlan,
    seeds: &[u64],
    json: bool,
) -> Result<String, String> {
    let mut reports = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let config = icomm_fleet::FleetConfig {
            boards: board.to_string(),
            seed,
            livefire_wire: WireMode::Binary,
            faults: plan.clone(),
            ..icomm_fleet::FleetConfig::default()
        };
        reports.push(icomm_fleet::run_fleet(&config)?.report);
    }
    if json {
        let mut out = icomm_persist::to_string(&reports)
            .map_err(|err| format!("cannot serialize fleet reports: {err}"))?;
        out.push('\n');
        return Ok(out);
    }
    let mut out = String::new();
    for report in &reports {
        let _ = writeln!(out, "{report}\n");
    }
    if reports.iter().all(icomm_fleet::FleetReport::passed) {
        Ok(out)
    } else {
        Err(format!("fleet chaos campaign FAILED\n\n{out}"))
    }
}

fn compare(board: &str, app: &str) -> Result<String, String> {
    let device = board_by_name(board)?;
    let workload = workload_by_name(app)?;
    let sc = run_model(CommModelKind::StandardCopy, &device, &workload);
    let mut out = format!("{} on {} (per frame):\n", workload.name, device.name);
    for kind in CommModelKind::EXTENDED {
        // UPM only exists as a distinct path on hardware-coherent boards;
        // elsewhere it would render a duplicate of the UM row.
        if kind == CommModelKind::CoherentUpm && !device.supports_coherent_upm() {
            continue;
        }
        let run = run_model(kind, &device, &workload);
        let delta = if kind == CommModelKind::StandardCopy {
            "      -".to_string()
        } else {
            format!("{:+6.0}%", run.speedup_vs_percent(&sc))
        };
        let footprint = icomm_footprint::model_footprint(kind, &workload, &device);
        let _ = writeln!(
            out,
            "  {:>3}: {:>10.2} us (cpu {:>9.2}, kernel {:>9.2}, copies {:>8.2}) {delta} vs SC, {:>6.2} mJ, {:>10} resident",
            kind.abbrev(),
            run.time_per_iteration().as_micros_f64(),
            run.cpu_time_per_iteration().as_micros_f64(),
            run.kernel_time_per_iteration().as_micros_f64(),
            run.copy_time_per_iteration().as_micros_f64(),
            run.energy.as_joules() * 1e3 / run.iterations as f64,
            icomm_footprint::human_bytes(footprint.as_u64()),
        );
    }
    Ok(out)
}

/// Loads a cached characterization from a JSON file.
fn load_characterization(path: &str) -> Result<DeviceCharacterization, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    icomm_persist::from_str(&text).map_err(|err| format!("cannot parse {path}: {err}"))
}

fn run_experiments() -> Result<String, String> {
    let mut reports: Vec<ExperimentReport> = vec![
        experiments::fig5_and_table1(),
        experiments::fig3_xavier(),
        experiments::fig6_tx2(),
        experiments::fig7(1 << 26),
    ];
    let chars = CharacterizationSet::measure();
    reports.push(experiments::table2_shwfs(&chars)?);
    reports.push(experiments::table3_shwfs()?);
    reports.push(experiments::table4_orb(&chars)?);
    reports.push(experiments::table5_orb()?);
    reports.push(experiments::validation_summary(&chars)?);
    reports.push(ablation::ablation_io_coherence());
    reports.push(experiments::crossover_sweep());
    Ok(reports
        .iter()
        .map(ExperimentReport::render)
        .collect::<Vec<_>>()
        .join("\n"))
}

/// Builds the service configuration the `serve`/`batch` commands share.
fn service_config(workers: usize, registry: Option<&str>, full: bool) -> ServiceConfig {
    let base = if full {
        ServiceConfig::default()
    } else {
        ServiceConfig::quick()
    };
    let base = base.with_workers(workers);
    match registry {
        Some(path) => base.with_registry_path(path.into()),
        None => base,
    }
}

/// `icomm serve`: run the TCP tuning service until the process is killed.
fn serve(
    addr: &str,
    wire: WireMode,
    workers: usize,
    registry: Option<&str>,
    full: bool,
    stats: bool,
) -> Result<String, String> {
    let service = Arc::new(TuningService::start(service_config(
        workers, registry, full,
    )));
    let warm = service.registry().len();
    let server = Server::start_with(service, addr, NetConfig::default().with_wire(wire))
        .map_err(|err| format!("cannot listen on {addr}: {err}"))?;
    let codec = match wire {
        WireMode::Json => "line JSON",
        WireMode::Binary => "icommwire v1 binary",
    };
    println!(
        "icomm-serve listening on {} ({codec}, {workers} workers, {} sweep, {} warm registry entries)",
        server.local_addr(),
        if full { "full" } else { "quick" },
        warm,
    );
    match wire {
        WireMode::Json => {
            println!("one JSON request per line, e.g.:");
            let bound = server.local_addr();
            println!(
                "  echo '{{\"id\": 1, \"board\": \"xavier\", \"app\": \"shwfs\"}}' | nc {} {}",
                bound.ip(),
                bound.port()
            );
        }
        WireMode::Binary => println!(
            "frames: [u32 len][u8 ver=1][u8 op][body][u32 crc32]; drive it with `icomm servebench` or icomm-net's BinaryClient"
        ),
    }
    loop {
        std::thread::sleep(Duration::from_secs(30));
        if stats {
            eprintln!("{}", server.service().metrics());
        }
    }
}

/// Sends the same tuning requests down the JSON and the binary listener
/// and counts decision payloads that differ. Transport fields (latency,
/// cache provenance) are excluded by [`TuneResponse::decision_payload`],
/// so a binary decision-cache answer still has to match the decision
/// the JSON wire computes byte for byte.
fn parity_check(
    json_addr: std::net::SocketAddr,
    binary_addr: std::net::SocketAddr,
) -> Result<(u64, u64), String> {
    let cases: [(&str, &str, Option<&str>); 5] = [
        ("nano", "shwfs", None),
        ("tx2", "orb", Some("SC")),
        ("xavier", "lane", None),
        ("nano", "lane", Some("UM")),
        ("tx2", "shwfs", None),
    ];
    let mut binary = BinaryClient::connect(binary_addr)
        .map_err(|err| format!("parity client cannot reach the binary plane: {err}"))?;
    let mut json = JsonClient::connect(json_addr)
        .map_err(|err| format!("parity client cannot reach the JSON plane: {err}"))?;
    let mut mismatches = 0u64;
    for (id, (board, app, current)) in cases.iter().enumerate() {
        let mut request = TuneRequest::new(id as u64, board, app);
        if let Some(model) = current {
            request = request.with_current(model);
        }
        let json_response = json
            .tune(&request)
            .map_err(|err| format!("parity request failed on the JSON plane: {err}"))?;
        let binary_response = binary
            .tune(&request)
            .map_err(|err| format!("parity request failed on the binary plane: {err}"))?;
        if json_response.decision_payload() != binary_response.decision_payload() {
            mismatches += 1;
        }
    }
    Ok((cases.len() as u64, mismatches))
}

/// `icomm servebench --json`: one flat object; CI greps its fields.
#[derive(Serialize)]
struct ServebenchJson {
    requests_per_plane: u64,
    conns: usize,
    workers: usize,
    batch: usize,
    json_rps: f64,
    json_p50_us: u64,
    json_p99_us: u64,
    json_failed: u64,
    binary_rps: f64,
    binary_p50_us: u64,
    binary_p99_us: u64,
    binary_failed: u64,
    parity_checked: u64,
    parity_mismatches: u64,
    decision_cache_hits: u64,
    batches_submitted: u64,
    batched_requests: u64,
    frame_faults: u64,
    hostile_probes: usize,
    hostile_defended: usize,
}

/// Rounds `value` to `digits` decimals exactly as `{:.digits$}`
/// formatting does, so JSON reports carry the figures the text prints.
fn round_to(value: f64, digits: usize) -> f64 {
    format!("{value:.digits$}").parse().unwrap_or(value)
}

/// `icomm servebench`: run a JSON and a binary listener over one shared
/// service and report throughput, tail latency, decision parity, and
/// (with `--hostile`) both listeners' survival under malformed traffic.
fn servebench(
    requests: usize,
    conns: usize,
    workers: usize,
    batch: usize,
    hostile: bool,
    json: bool,
) -> Result<String, String> {
    let service = Arc::new(TuningService::start(
        ServiceConfig::quick()
            .with_workers(workers)
            .with_admission(AdmissionConfig::unlimited()),
    ));
    // The short read deadline keeps the hostile stall probes quick; it
    // never fires for well-formed load because only connections with a
    // stalled partial request are reaped.
    let listen = |wire: WireMode| {
        Server::start_with(
            Arc::clone(&service),
            "127.0.0.1:0",
            NetConfig::default()
                .with_wire(wire)
                .with_read_deadline(Some(Duration::from_millis(1_500))),
        )
        .map_err(|err| {
            format!(
                "servebench cannot bind the {} listener: {err}",
                wire.as_str()
            )
        })
    };
    let json_server = listen(WireMode::Json)?;
    let binary_server = listen(WireMode::Binary)?;
    let json_addr = json_server.local_addr();
    let binary_addr = binary_server.local_addr();

    // First-touch characterizations would otherwise be billed to
    // whichever plane runs first; warm every board x app pair on both.
    warmup(json_addr, WireMode::Json)?;
    warmup(binary_addr, WireMode::Binary)?;

    let (parity_checked, parity_mismatches) = parity_check(json_addr, binary_addr)?;

    let per_conn = requests.div_ceil(conns.max(1)).max(1);
    let json_report = run_load(json_addr, WireMode::Json, conns, per_conn, 1);
    let binary_report = run_load(binary_addr, WireMode::Binary, conns, per_conn, batch);

    let mut defended: Vec<bool> = Vec::new();
    if hostile {
        use icomm_chaos::tcp::{
            binary_corrupt_crc, binary_garbage, binary_oversized, binary_truncated, send_garbage,
            send_oversized, stall_mid_request, BinaryDefense,
        };
        let refused = |outcome: std::io::Result<BinaryDefense>| {
            matches!(
                outcome,
                Ok(BinaryDefense::ErrorFrame | BinaryDefense::Disconnected)
            )
        };
        let give_up = Duration::from_secs(5);
        defended = vec![
            refused(binary_garbage(binary_addr, 0, 64)),
            refused(binary_garbage(binary_addr, 1, 121)),
            refused(binary_garbage(binary_addr, 2, 178)),
            refused(binary_oversized(binary_addr, 1 << 30)),
            refused(binary_corrupt_crc(binary_addr, 9)),
            binary_truncated(binary_addr, 6, give_up).unwrap_or(false),
            // The same defences on the JSON listener: every garbage line
            // answered, an over-long line refused, a stalled line dropped.
            send_garbage(json_addr, 5, 8).is_ok_and(|answered| answered == 8),
            send_oversized(json_addr, 64 * 1024).is_ok_and(|reply| reply.contains("exceeds")),
            stall_mid_request(json_addr, give_up).unwrap_or(false),
        ];
    }
    let hostile_probes = defended.len();
    let hostile_defended = defended.iter().filter(|&&d| d).count();

    let snapshot = service.metrics();
    json_server.stop();
    binary_server.stop();
    Arc::try_unwrap(service)
        .map_err(|_| "servebench listeners still hold service references".to_string())?
        .shutdown()?;

    if json {
        let report = ServebenchJson {
            requests_per_plane: json_report.sent,
            conns,
            workers,
            batch,
            json_rps: round_to(json_report.rps, 1),
            json_p50_us: json_report.p50_us,
            json_p99_us: json_report.p99_us,
            json_failed: json_report.failed,
            binary_rps: round_to(binary_report.rps, 1),
            binary_p50_us: binary_report.p50_us,
            binary_p99_us: binary_report.p99_us,
            binary_failed: binary_report.failed,
            parity_checked,
            parity_mismatches,
            decision_cache_hits: snapshot.decision_cache_hits,
            batches_submitted: snapshot.batches_submitted,
            batched_requests: snapshot.batched_requests,
            frame_faults: snapshot.frame_faults(),
            hostile_probes,
            hostile_defended,
        };
        let mut text = icomm_persist::to_string(&report)
            .map_err(|err| format!("cannot serialize report: {err}"))?;
        text.push('\n');
        return Ok(text);
    }

    let plane_line = |report: &LoadReport| {
        format!(
            "  {:<7} {:>10.1} rps   p50 {:>7} us   p99 {:>7} us   {}/{} ok",
            report.mode.as_str(),
            report.rps,
            report.p50_us,
            report.p99_us,
            report.ok,
            report.sent,
        )
    };
    let mut out = format!(
        "servebench: {} requests per plane, {conns} conns, {workers} workers, batch {batch}\n",
        json_report.sent,
    );
    out.push_str(&plane_line(&json_report));
    out.push('\n');
    out.push_str(&plane_line(&binary_report));
    out.push('\n');
    let _ = writeln!(
        out,
        "  parity  {}/{} decision payloads identical",
        parity_checked - parity_mismatches,
        parity_checked,
    );
    let _ = writeln!(
        out,
        "  engine  {} batches ({} requests batched), {} decision cache hits",
        snapshot.batches_submitted, snapshot.batched_requests, snapshot.decision_cache_hits,
    );
    if hostile {
        let _ = writeln!(
            out,
            "  hostile {hostile_defended}/{hostile_probes} probes defended, {} frame faults counted",
            snapshot.frame_faults(),
        );
    }
    Ok(out)
}

/// `icomm batch`: answer a file (or stdin) of line-JSON requests.
fn batch(
    file: Option<&str>,
    workers: usize,
    registry: Option<&str>,
    full: bool,
    stats: bool,
) -> Result<String, String> {
    let text = match file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?
        }
        None => {
            let mut buffer = String::new();
            for line in std::io::stdin().lock().lines() {
                let line = line.map_err(|err| format!("cannot read stdin: {err}"))?;
                buffer.push_str(&line);
                buffer.push('\n');
            }
            buffer
        }
    };
    let service = TuningService::start(service_config(workers, registry, full));
    let result = batch_text(&service, &text, stats);
    service.shutdown()?;
    result
}

/// Parses the request lines, runs them as one batch, and renders one
/// response per line (sorted by id, malformed-line failures last).
fn batch_text(service: &TuningService, text: &str, stats: bool) -> Result<String, String> {
    let mut requests = Vec::new();
    let mut malformed = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match icomm_persist::from_str::<TuneRequest>(line) {
            Ok(request) => requests.push(request),
            Err(err) => malformed.push(TuneResponse::failure(
                0,
                format!("line {}: malformed request: {err:?}", index + 1),
            )),
        }
    }
    let mut responses = service.submit_batch(requests).wait();
    responses.extend(malformed);
    let mut out = String::new();
    for response in &responses {
        let json = icomm_persist::to_string(response)
            .map_err(|err| format!("cannot serialize response: {err}"))?;
        let _ = writeln!(out, "{json}");
    }
    if stats {
        let _ = writeln!(out, "--- stats ---");
        let _ = write!(out, "{}", service.metrics());
    }
    Ok(out)
}

/// `icomm fleet`: simulate a clustered device fleet against the tuning
/// stack and report warm-start rate, tail latency, shedding, and
/// transfer regret.
#[allow(clippy::too_many_arguments)]
fn fleet(
    mix: &str,
    devices: usize,
    arrival: &str,
    rate: f64,
    seed: u64,
    tenants: usize,
    wire: WireMode,
    faults: &str,
    mem_cap: Option<u64>,
    json: bool,
) -> Result<String, String> {
    let process = icomm_fleet::ArrivalProcess::parse(arrival)?;
    let config = icomm_fleet::FleetConfig {
        boards: mix.to_string(),
        devices,
        arrival: icomm_fleet::ArrivalConfig {
            process,
            rate_per_sec: rate,
            ..icomm_fleet::ArrivalConfig::default()
        },
        seed,
        tenants_per_device: tenants,
        livefire_wire: wire,
        faults: icomm_chaos::FaultPlan::parse(faults)?,
        mem_cap: mem_cap.map(ByteSize),
        ..icomm_fleet::FleetConfig::default()
    };
    let out = icomm_fleet::run_fleet(&config)?;
    if json {
        // Only the deterministic report: the wall-clock live-fire stats
        // would break byte-identical replay.
        let mut text = icomm_persist::to_string(&out.report)
            .map_err(|err| format!("cannot serialize fleet report: {err}"))?;
        text.push('\n');
        return Ok(text);
    }
    let mut text = format!("{}\n", out.report);
    if let Some(livefire) = &out.livefire {
        let _ = writeln!(text, "{livefire}");
    }
    Ok(text)
}

/// Maps a CLI board name (with its aliases) onto the canonical name the
/// synth sweep and rule-set scope keys use.
fn canonical_synth_board(name: &str) -> Result<String, String> {
    let device = board_by_name(name)?;
    BOARD_NAMES
        .iter()
        .find(|b| board_by_name(b).is_ok_and(|d| d.name == device.name))
        .map(|b| (*b).to_string())
        .ok_or_else(|| format!("board '{name}' has no synthesis sweep profile"))
}

/// `icomm synth --json`: the deterministic part of a synthesis run —
/// no maps, no wall clock, fixed field order — so it replays byte for
/// byte per config.
#[derive(Serialize)]
struct SynthJson {
    boards: Vec<String>,
    seed: u64,
    max_size: u32,
    samples: u64,
    rule_count: usize,
    uncovered: u64,
    disagreements: u64,
    scope_contexts: usize,
    skipped_contexts: usize,
    sweep_bytes: u64,
    ruleset_bytes: u64,
    compression: f64,
    rules: Vec<RuleJson>,
}

/// One rule of [`SynthJson`].
#[derive(Serialize)]
struct RuleJson {
    pred: String,
    model: &'static str,
    support: u32,
    boards: Vec<String>,
}

/// `icomm synth`: sweep the simulators, synthesize algebraic decision
/// rules, validate them against the brute-force oracle, and report the
/// rule set with its verified scope and compression ratio.
fn synth(
    board: &str,
    mixes: &[String],
    max_size: u32,
    seed: u64,
    save: Option<&str>,
    json: bool,
) -> Result<String, String> {
    let mut config = icomm_synth::SynthConfig {
        max_size,
        seed,
        ..icomm_synth::SynthConfig::default()
    };
    if board != "all" {
        config.boards = vec![canonical_synth_board(board)?];
    }
    if !mixes.is_empty() {
        config.mixes = mixes.to_vec();
        config.capped_pressure = mixes.iter().any(|m| m == "pressure");
    }
    let out = icomm_synth::synthesize(&config)?;
    let sweep_bytes = out.table.persisted_bytes()?;
    let ruleset_bytes = out.ruleset.persisted_bytes()?;
    let compression = sweep_bytes as f64 / ruleset_bytes as f64;
    if let Some(path) = save {
        out.ruleset.save(std::path::Path::new(path))?;
    }
    let ruleset = &out.ruleset;
    if json {
        let report = SynthJson {
            boards: ruleset.boards.clone(),
            seed: ruleset.seed,
            max_size: ruleset.max_size,
            samples: ruleset.samples,
            rule_count: ruleset.rules.len(),
            uncovered: ruleset.uncovered,
            disagreements: ruleset.disagreements,
            scope_contexts: ruleset.scope.len(),
            skipped_contexts: out.table.skipped_contexts.len(),
            sweep_bytes,
            ruleset_bytes,
            compression: round_to(compression, 2),
            rules: ruleset
                .rules
                .iter()
                .map(|r| RuleJson {
                    pred: r.pred.to_string(),
                    model: r.model.abbrev(),
                    support: r.support,
                    boards: r.boards.clone(),
                })
                .collect(),
        };
        let mut text = icomm_persist::to_string(&report)
            .map_err(|err| format!("cannot serialize report: {err}"))?;
        text.push('\n');
        return Ok(text);
    }
    let mut text = format!(
        "rule synthesis over {} board(s), seed {seed}, max term size {max_size}:\n",
        ruleset.boards.len(),
    );
    let _ = writeln!(
        text,
        "  sweep        {} samples across {} contexts ({} cap-infeasible contexts skipped)",
        ruleset.samples,
        ruleset.scope.len() as u64 + count_unverified_contexts(&out),
        out.table.skipped_contexts.len(),
    );
    let _ = writeln!(
        text,
        "  enumeration  {} atoms, {} candidate predicates, {} equivalence classes ({} sound)",
        out.atoms_enumerated, out.preds_enumerated, out.classes, out.sound_candidates,
    );
    let _ = writeln!(
        text,
        "  cover        {} rules selected, {} samples uncovered",
        ruleset.rules.len(),
        ruleset.uncovered,
    );
    let _ = writeln!(
        text,
        "  validation   {} oracle disagreements, {} contexts in verified scope",
        ruleset.disagreements,
        ruleset.scope.len(),
    );
    let _ = writeln!(
        text,
        "  compression  {sweep_bytes} B sweep -> {ruleset_bytes} B rules ({compression:.2}x)",
    );
    let _ = writeln!(text, "rules (first match wins):");
    for (index, rule) in ruleset.rules.iter().enumerate() {
        let _ = writeln!(
            text,
            "  {:>2}. {}  =>  {:<4} [support {}, boards {}]",
            index + 1,
            rule.pred,
            rule.model.abbrev(),
            rule.support,
            rule.boards.join(","),
        );
    }
    if let Some(path) = save {
        let _ = writeln!(text, "saved rule set to {path}");
    }
    Ok(text)
}

/// Contexts the sweep produced but validation left out of scope.
fn count_unverified_contexts(out: &icomm_synth::SynthOutput) -> u64 {
    let mut keys: Vec<String> = out
        .table
        .samples
        .iter()
        .map(|s| icomm_synth::RuleSet::scope_key(&s.board, &s.mix, s.mem_cap_bytes))
        .collect();
    keys.sort();
    keys.dedup();
    keys.iter()
        .filter(|k| !out.ruleset.scope.contains(k))
        .count() as u64
}

/// `icomm sched`: co-schedule a named tenant mix on one board and report
/// deadline misses, slowdown vs solo, and bandwidth throttles.
fn sched(
    board: &str,
    mix: &str,
    policy: &str,
    seed: u64,
    windows: u32,
    mem_cap: Option<u64>,
    json: bool,
) -> Result<String, String> {
    let device = board_by_name(board)?;
    let mut config = icomm_sched::SchedConfig::new(device);
    config.mix = mix.to_string();
    config.policy = icomm_sched::PolicyKind::parse(policy)?;
    config.seed = seed;
    config.jobs_per_tenant = windows;
    config.mem_cap = mem_cap.map(ByteSize);
    let out = icomm_sched::run_sched(&config)?;
    if json {
        let mut text = icomm_persist::to_string(&out.report)
            .map_err(|err| format!("cannot serialize sched report: {err}"))?;
        text.push('\n');
        return Ok(text);
    }
    let mut text = format!("{}\n", out.report);
    let _ = writeln!(text, "--- joint assignment ---");
    for t in &out.assignment.tenants {
        let _ = writeln!(
            text,
            "  {:<12} joint {}  solo-best {}  recommended {}  footprint {}  co-run slowdown {:.3}x{}",
            t.name,
            t.joint.abbrev(),
            t.solo_best.abbrev(),
            t.solo_recommended.abbrev(),
            icomm_footprint::human_bytes(t.footprint.as_u64()),
            t.slowdown,
            if t.flipped { "  [flipped]" } else { "" },
        );
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icomm_net::WireMode::{Binary, Json};

    #[test]
    fn boards_lists_all() {
        let text = boards();
        for name in BOARD_NAMES {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("I/O coherent"));
    }

    #[test]
    fn compare_renders_all_models() {
        let text = compare("xavier", "lane").unwrap();
        for abbrev in ["SC", "UM", "ZC", "SC+"] {
            assert!(text.contains(abbrev), "missing {abbrev}");
        }
        assert!(
            !text.contains("UPM"),
            "UPM row on a non-coherent board:\n{text}"
        );
    }

    #[test]
    fn compare_includes_upm_on_coherent_boards() {
        let text = compare("mi300a-like", "lane").unwrap();
        assert!(text.contains("UPM"), "missing UPM row in:\n{text}");
    }

    #[test]
    fn execute_help() {
        assert!(execute(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn tune_json_emits_parseable_validation() {
        let out = tune(
            "xavier",
            "shwfs",
            CommModelKind::StandardCopy,
            None,
            true,
            None,
        )
        .unwrap();
        let validation: icomm_core::Validation = icomm_persist::from_str(out.trim()).unwrap();
        let text = tune(
            "xavier",
            "shwfs",
            CommModelKind::StandardCopy,
            None,
            false,
            None,
        )
        .unwrap();
        assert!(text.contains(&validation.summary()), "{text}");
    }

    #[test]
    fn tune_page_size_applies_to_the_board() {
        // Same board, same app — only the page size differs; both runs
        // must complete and stay internally consistent.
        for page in [PageSize::Small4K, PageSize::Huge2M] {
            let out = tune(
                "mi300a-like",
                "shwfs",
                CommModelKind::UnifiedMemory,
                Some(page),
                true,
                None,
            )
            .unwrap();
            let validation: icomm_core::Validation = icomm_persist::from_str(out.trim()).unwrap();
            let text = tune(
                "mi300a-like",
                "shwfs",
                CommModelKind::UnifiedMemory,
                Some(page),
                false,
                None,
            )
            .unwrap();
            assert!(text.contains(&validation.summary()), "{text}");
        }
    }

    #[test]
    fn adapt_renders_policies_and_regret() {
        let out = adapt("xavier", "shwfs", 6, true, false, None).unwrap();
        for needle in [
            "adapt",
            "static-",
            "oracle",
            "regret vs oracle",
            "--- stats ---",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
    }

    #[test]
    fn adapt_json_round_trips() {
        let out = adapt("tx2", "lane", 5, false, true, None).unwrap();
        let report: icomm_adapt::AdaptationReport = icomm_persist::from_str(out.trim()).unwrap();
        assert_eq!(report.device, board_by_name("tx2").unwrap().name);
        assert!(report.workload.contains("lane"), "{}", report.workload);
    }

    #[test]
    fn chaos_reports_survival_and_replays_identically() {
        let run = || chaos("tx2", "shwfs", "hostile", &[7], 6, false, false).unwrap();
        let out = run();
        for needle in [
            "chaos campaign",
            "survived: yes",
            "regret vs oracle",
            "--- matrix ---",
            "1/1 campaigns passed",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
        assert_eq!(out, run(), "same-seed chaos output not byte-identical");
    }

    #[test]
    fn chaos_json_round_trips() {
        let out = chaos("tx2", "shwfs", "noise", &[1, 2], 4, false, true).unwrap();
        let reports: Vec<icomm_chaos::ChaosReport> = icomm_persist::from_str(out.trim()).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(icomm_chaos::ChaosReport::passed));
    }

    #[test]
    fn chaos_rejects_bad_plans() {
        let err = chaos("tx2", "shwfs", "mayhem", &[1], 4, false, false).unwrap_err();
        assert!(err.contains("unknown fault preset"), "{err}");
    }

    #[test]
    fn phased_workloads_resolve() {
        for app in APP_NAMES {
            let phased = phased_workload_by_name(app, 4).unwrap();
            assert_eq!(phased.phases.len(), 3);
            assert!(phased.name.contains(app), "{}", phased.name);
        }
        assert!(phased_workload_by_name("quake", 4).is_err());
    }

    #[test]
    fn fleet_json_is_deterministic_and_parses() {
        let run = || {
            fleet(
                "nano,tx2", 48, "poisson", 400.0, 7, 1, Json, "none", None, true,
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same-seed fleet JSON not byte-identical");
        let report: icomm_fleet::FleetReport = icomm_persist::from_str(a.trim()).unwrap();
        assert_eq!(report.devices, 48);
        assert_eq!(report.seed, 7);
        assert_eq!(report.livefire_failed, 0);
        // Human rendering carries the wall-clock side channel instead;
        // drive the live-fire stage over the binary plane here so the
        // CLI path through `--wire binary` is covered too.
        let text = fleet(
            "nano", 24, "burst", 600.0, 3, 2, Binary, "none", None, false,
        )
        .unwrap();
        assert!(text.contains("verdict"), "{text}");
        assert!(text.contains("livefire wall-clock"), "{text}");
    }

    #[test]
    fn fleet_faults_inject_and_replay() {
        let spec = "none,churn_prob=0.2,poison_prob=0.2";
        let run = || {
            fleet(
                "nano,tx2", 64, "poisson", 400.0, 11, 1, Json, spec, None, true,
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same-seed faulted fleet JSON not byte-identical");
        let report: icomm_fleet::FleetReport = icomm_persist::from_str(a.trim()).unwrap();
        assert!(report.churn_events > 0, "churn never fired");
        assert!(report.poisoned_sources > 0, "poisoning never fired");
        assert!(
            report.quarantined_sources > 0,
            "robust transfer caught no poisoned sources"
        );
    }

    #[test]
    fn chaos_fleet_campaign_survives_and_round_trips() {
        let plan =
            icomm_chaos::FaultPlan::parse("none,churn_prob=0.05,poison_prob=0.05,shard_panics=1")
                .unwrap();
        let out = chaos_fleet("nano", &plan, &[7], true).unwrap();
        let reports: Vec<icomm_fleet::FleetReport> = icomm_persist::from_str(out.trim()).unwrap();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert!(report.passed(), "fleet chaos campaign failed: {report}");
        assert!(report.churn_events + report.poisoned_sources > 0);
        assert_eq!(report.livefire_shard_restarts, 1);
        assert_eq!(report.livefire_failed, 0);
    }

    #[test]
    fn sched_json_is_deterministic_and_parses() {
        let run = || sched("tx2", "contended", "deadline", 42, 4, None, true).unwrap();
        let a = run();
        assert_eq!(a, run(), "same-seed sched JSON not byte-identical");
        let report: icomm_sched::SchedReport = icomm_persist::from_str(a.trim()).unwrap();
        assert_eq!(report.seed, 42);
        assert_eq!(report.mix, "contended");
        assert_eq!(report.policy, "deadline");
        // Human rendering carries the joint-assignment detail instead.
        let text = sched("tx2", "duo", "fifo", 7, 2, None, false).unwrap();
        assert!(text.contains("footprint"), "{text}");
        assert!(text.contains("--- joint assignment ---"), "{text}");
        assert!(text.contains("deadlines"), "{text}");
    }

    #[test]
    fn servebench_json_reports_parity_and_both_wires() {
        let out = servebench(24, 3, 2, 4, false, true).unwrap();
        assert!(out.contains("\"parity_mismatches\":0"), "{out}");
        assert!(out.contains("\"json_failed\":0"), "{out}");
        assert!(out.contains("\"binary_failed\":0"), "{out}");
        assert!(out.contains("\"json_rps\":"), "{out}");
        assert!(out.contains("\"binary_rps\":"), "{out}");
        assert!(out.contains("\"decision_cache_hits\":"), "{out}");
    }

    #[test]
    fn servebench_hostile_text_counts_defenses() {
        let out = servebench(6, 2, 2, 3, true, false).unwrap();
        assert_eq!(
            out.lines().filter(|l| l.contains(" rps ")).count(),
            2,
            "{out}"
        );
        assert!(out.contains("5/5 decision payloads identical"), "{out}");
        assert!(out.contains("hostile 9/9 probes defended"), "{out}");
        assert!(!out.contains("0 frame faults"), "{out}");
    }

    #[test]
    fn synth_json_is_deterministic_and_validates_cleanly() {
        let mixes = vec!["solo:shwfs".to_string(), "duo".to_string()];
        let run = || synth("jetson-tx2", &mixes, 2, 42, None, true).unwrap();
        let a = run();
        assert_eq!(a, run(), "same-seed synth JSON not byte-identical");
        // The alias normalizes to the canonical sweep board name.
        assert!(a.contains("\"boards\":[\"tx2\"]"), "{a}");
        assert!(a.contains("\"disagreements\":0"), "{a}");
        assert!(!a.contains("\"rule_count\":0"), "{a}");
        let text = synth("tx2", &mixes, 2, 42, None, false).unwrap();
        assert!(text.contains("rules (first match wins):"), "{text}");
        assert!(text.contains("0 oracle disagreements"), "{text}");
    }

    #[test]
    fn batch_text_answers_and_reports_stats() {
        let service = TuningService::start(icomm_serve::ServiceConfig::quick().with_workers(2));
        let input = "\
{\"id\": 2, \"board\": \"tx2\", \"app\": \"orb\", \"current\": \"zc\"}\n\
{\"id\": 1, \"board\": \"tx2\", \"app\": \"shwfs\"}\n\
not json\n";
        let out = batch_text(&service, input, true).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // Two responses sorted by id, then the malformed-line failure.
        assert!(lines[0].contains("\"id\":1"), "{}", lines[0]);
        assert!(lines[1].contains("\"id\":2"), "{}", lines[1]);
        assert!(lines[2].contains("malformed request"), "{}", lines[2]);
        assert!(out.contains("--- stats ---"));
        assert!(out.contains("hit rate"));
        service.shutdown().unwrap();
    }
}

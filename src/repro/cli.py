"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment <name>``
    Regenerate one paper artifact (table1, fig2, fig4, fig5, fig6, fig7,
    fig8, fig9, wsweep, devices, frontier) and print it.
``tune``
    Run one HBO activation on a scenario and print the configuration it
    settles on; optionally export the run as JSON.
``fleet``
    Run a multi-session fleet against the shared edge optimizer and
    print the cold-vs-warm convergence report; optionally export the
    fleet trace and the warm-start store as JSON.
``trace``
    Run a scenario (or a fleet, with ``--fleet N``) with observability
    enabled and emit a Perfetto-loadable trace plus a metrics snapshot.
``scenario {list,run,export}``
    The replayable workload catalog: list the named fleet scenarios,
    compile-and-run one at a seed (byte-identical replay), or export its
    spec as canonical JSON.
``list``
    Show the available scenarios, tasksets, devices and experiments.
``profiles``
    Print the Table I isolation profiles for a device.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.controller import HBOConfig, HBOController
from repro.device.profiles import GALAXY_S22, PIXEL7, device_names, model_names
from repro.errors import ReproError
from repro.experiments import (
    edge as edge_exp,
    fig2,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fleet as fleet_exp,
    scenarios as scenario_exp,
    sweep,
    table1,
)
from repro.models.zoo import ModelZoo
from repro.rng import derive_seed
from repro.sim.scenarios import build_system

_EXPERIMENTS = {
    "table1": lambda seed, cfg: table1.render(table1.run_table1(seed=seed)),
    "fig2": lambda seed, cfg: fig2.render(fig2.run_all(seed=seed)),
    "fig4": lambda seed, cfg: fig4.render(fig4.run_fig4(seed=seed, config=cfg)),
    "fig5": lambda seed, cfg: fig5.render(fig5.run_fig5(seed=seed, config=cfg)),
    "fig6": lambda seed, cfg: fig6.render(fig6.run_fig6(seed=seed, config=cfg)),
    "fig7": lambda seed, cfg: fig7.render(fig7.run_fig7(seed=seed, config=cfg)),
    "fig8": lambda seed, cfg: fig8.render(fig8.run_fig8(seed=seed, config=cfg)),
    "fig9": lambda seed, cfg: fig9.render(fig9.run_fig9(seed=seed, config=cfg)),
    "fleet": lambda seed, cfg: fleet_exp.render(
        fleet_exp.run_fleet_experiment(seed=seed, config=cfg)
    ),
    "wsweep": lambda seed, cfg: sweep.render_w_sweep(
        sweep.run_w_sweep(seed=seed, config=cfg)
    ),
    "devices": lambda seed, cfg: sweep.render_device_comparison(
        sweep.run_device_comparison(seed=seed, config=cfg)
    ),
    "frontier": lambda seed, cfg: sweep.render_frontier_grid(
        sweep.run_frontier_grid(seed=seed)
    ),
    "edge": lambda seed, cfg: edge_exp.render(
        edge_exp.run_edge_experiment(seed=seed)
    ),
    "saturation": lambda seed, cfg: edge_exp.render_saturation(
        edge_exp.run_saturation_study(seed=seed, config=cfg)
    ),
    "scenarios": lambda seed, cfg: scenario_exp.render(
        scenario_exp.run_scenario_sweep(seed=seed, config=cfg)
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HBO reproduction (ICDCS 2024): experiments and tuning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--seed", type=int, default=2024)
    exp.add_argument("--iterations", type=int, default=15,
                     help="BO-guided iterations per activation")
    exp.add_argument("--initial", type=int, default=5,
                     help="random initialization points")

    tune = sub.add_parser("tune", help="run one HBO activation")
    tune.add_argument("--scenario", choices=("SC1", "SC2"), default="SC1")
    tune.add_argument("--taskset", choices=("CF1", "CF2"), default="CF1")
    tune.add_argument("--device", choices=device_names(), default=PIXEL7)
    tune.add_argument("--weight", type=float, default=2.5, help="Eq. 3 weight w")
    tune.add_argument("--seed", type=int, default=2024)
    tune.add_argument("--iterations", type=int, default=15)
    tune.add_argument("--initial", type=int, default=5)
    tune.add_argument("--edge", action="store_true",
                      help="enable edge offloading (EDGE as a 4th resource)")
    tune.add_argument("--gp-tier", choices=("exact", "sparse"), default="exact",
                      help="GP surrogate tier: exact O(n^3) refits, or a "
                           "budgeted sparse tier past --gp-threshold "
                           "(docs/optimizer.md)")
    tune.add_argument("--gp-threshold", type=int, metavar="N", default=64,
                      help="sparse-tier switch point n* and support budget")
    tune.add_argument("--export", metavar="PATH", default=None,
                      help="write the full run as JSON")

    fleet = sub.add_parser(
        "fleet", help="run a multi-session fleet with warm starting"
    )
    fleet.add_argument("--sessions", type=int, default=16,
                       help="number of concurrent sessions")
    fleet.add_argument("--seed", type=int, default=2024)
    fleet.add_argument("--iterations", type=int, default=15,
                       help="BO-guided iterations per session")
    fleet.add_argument("--initial", type=int, default=5,
                       help="random initialization points per session")
    fleet.add_argument("--cold", action="store_true",
                       help="disable cross-session warm starting")
    fleet.add_argument("--edge", action="store_true",
                       help="offload to one shared edge server all "
                            "sessions contend on (a 1-node open topology)")
    fleet.add_argument("--edge-servers", type=int, metavar="N", default=1,
                       help="offload through an N-server edge topology "
                            "with placement and admission control "
                            "(N=1 needs --edge)")
    fleet.add_argument("--placement",
                       choices=("nearest", "least-loaded", "price-aware"),
                       default="price-aware",
                       help="topology placement policy (with --edge-servers)")
    fleet.add_argument("--gp-tier", choices=("exact", "sparse"), default="exact",
                       help="GP surrogate tier for every session: exact "
                            "O(n^3) refits, or a budgeted sparse tier past "
                            "--gp-threshold (docs/optimizer.md)")
    fleet.add_argument("--gp-threshold", type=int, metavar="N", default=64,
                       help="sparse-tier switch point n* and support budget")
    fleet.add_argument("--shards", type=int, metavar="N", default=1,
                       help="step the fleet in N parallel worker processes "
                            "(contiguous spec cohorts; output is "
                            "byte-identical to --shards 1 at the same seed)")
    fleet.add_argument("--export", metavar="PATH", default=None,
                       help="write the fleet trace as JSON")
    fleet.add_argument("--store", metavar="PATH", default=None,
                       help="write the warm-start store as JSON")

    trace = sub.add_parser(
        "trace", help="run with tracing on; emit trace + metrics snapshot"
    )
    trace.add_argument("--scenario", choices=("SC1", "SC2"), default="SC1")
    trace.add_argument("--taskset", choices=("CF1", "CF2"), default="CF1")
    trace.add_argument("--device", choices=device_names(), default=PIXEL7)
    trace.add_argument("--fleet", type=int, metavar="N", default=0,
                       help="trace an N-session fleet instead of one scenario")
    trace.add_argument("--seed", type=int, default=2024)
    trace.add_argument("--iterations", type=int, default=15)
    trace.add_argument("--initial", type=int, default=5)
    trace.add_argument("--duration", dest="duration_s", type=float, default=60.0,
                       help="monitored session length in simulated seconds")
    trace.add_argument("--wall", action="store_true",
                       help="also capture wall-clock span durations "
                            "(non-reproducible; excluded by default)")
    trace.add_argument("--out", metavar="PATH", default="trace.json",
                       help="trace output (Chrome trace-event JSON)")
    trace.add_argument("--metrics", metavar="PATH", default=None,
                       help="also write the metrics snapshot as JSON")

    scen = sub.add_parser(
        "scenario", help="seeded, replayable fleet workloads from the catalog"
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)

    scen_sub.add_parser("list", help="show the catalog entries")

    scen_run = scen_sub.add_parser(
        "run", help="compile and run one catalog scenario"
    )
    scen_run.add_argument("name", help="catalog entry (see `scenario list`)")
    scen_run.add_argument("--seed", type=int, default=2024)
    scen_run.add_argument("--iterations", type=int, default=15,
                          help="BO-guided iterations per session")
    scen_run.add_argument("--initial", type=int, default=5,
                          help="random initialization points per session")
    scen_run.add_argument("--sessions", type=int, metavar="N", default=None,
                          help="override the scenario's population")
    scen_run.add_argument("--mode",
                          choices=("device", "legacy-edge", "topology"),
                          default=None,
                          help="re-serve the scenario through another mode")
    scen_run.add_argument("--export", metavar="PATH", default=None,
                          help="write the replay artifact (canonical JSON; "
                               "byte-identical across runs at one seed)")

    scen_export = scen_sub.add_parser(
        "export", help="print a scenario spec as canonical JSON"
    )
    scen_export.add_argument("name", help="catalog entry")
    scen_export.add_argument("--out", metavar="PATH", default=None,
                             help="write to a file instead of stdout")

    sub.add_parser("list", help="show scenarios, devices and experiments")

    prof = sub.add_parser("profiles", help="print Table I for a device")
    prof.add_argument("--device", choices=device_names(), default=PIXEL7)

    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = HBOConfig(n_initial=args.initial, n_iterations=args.iterations)
    print(_EXPERIMENTS[args.name](args.seed, config))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = HBOConfig(
        w=args.weight,
        n_initial=args.initial,
        n_iterations=args.iterations,
        gp_tier=args.gp_tier,
        gp_sparse_threshold=args.gp_threshold,
    )
    edge_runtime = None
    if args.edge:
        from repro.edge.runtime import build_edge_runtime

        edge_runtime = build_edge_runtime(
            seed=derive_seed(args.seed, "edge-link"), session_id="tune"
        )
    system = build_system(
        args.scenario,
        args.taskset,
        device=args.device,
        seed=derive_seed(args.seed, args.scenario, args.taskset),
        edge=edge_runtime,
    )
    before = system.measure()
    controller = HBOController(system, config, seed=args.seed)
    result = controller.activate()
    after = result.final_measurement

    print(f"{args.scenario}-{args.taskset} on {args.device}, w={args.weight}")
    print(f"before: eps={before.epsilon:.3f} Q={before.quality:.3f} "
          f"B={before.reward(args.weight):+.3f}")
    print(f"after:  eps={after.epsilon:.3f} Q={after.quality:.3f} "
          f"B={after.reward(args.weight):+.3f}")
    print(f"triangle ratio x = {result.best.triangle_ratio:.2f}")
    for task_id, resource in sorted(result.best.allocation.items()):
        print(f"  {task_id:<22s} -> {resource}")

    if args.export:
        from repro.sim.export import run_result_to_dict, save_json

        save_json(run_result_to_dict(result), args.export)
        print(f"run exported to {args.export}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    config = HBOConfig(
        n_initial=args.initial,
        n_iterations=args.iterations,
        gp_tier=args.gp_tier,
        gp_sparse_threshold=args.gp_threshold,
    )
    topology = None
    if args.edge_servers < 1:
        raise SystemExit("--edge-servers must be >= 1")
    if args.edge_servers > 1:
        from repro.edge.topology import default_topology

        topology = default_topology(args.edge_servers)
    elif args.edge:
        from repro.edge.topology import EdgeTopologyConfig

        topology = EdgeTopologyConfig.single()
    experiment = fleet_exp.run_fleet_experiment(
        seed=args.seed,
        config=config,
        n_sessions=args.sessions,
        warm_start=not args.cold,
        topology=topology,
        placement=args.placement,
        shards=args.shards,
    )
    print(fleet_exp.render(experiment))
    if args.export:
        from repro.fleet.export import fleet_result_to_dict
        from repro.sim.export import save_json

        save_json(fleet_result_to_dict(experiment.result), args.export)
        print(f"fleet trace exported to {args.export}")
    if args.store:
        experiment.store.save(args.store)
        print(f"warm-start store exported to {args.store}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        instrumented,
        load_trace_json,
        validate_events,
        write_metrics_json,
        write_trace_json,
    )

    config = HBOConfig(n_initial=args.initial, n_iterations=args.iterations)
    tracer = Tracer(capture_wall=args.wall)
    metrics = MetricsRegistry()

    if args.fleet > 0:
        from repro.fleet.scheduler import FleetConfig, FleetScheduler

        specs = fleet_exp.default_fleet_specs(args.fleet, config, seed=args.seed)
        scheduler = FleetScheduler(
            specs,
            seed=derive_seed(args.seed, "fleet"),
            config=FleetConfig(hbo=config),
        )
        tracer.clock = scheduler.clock
        with instrumented(tracer, metrics):
            result = scheduler.run()
        print(f"fleet: {args.fleet} sessions drained in {result.ticks} ticks")
    else:
        from repro.core.activation import EventBasedPolicy
        from repro.sim.engine import MonitoringEngine

        system = build_system(
            args.scenario,
            args.taskset,
            device=args.device,
            seed=derive_seed(args.seed, args.scenario, args.taskset),
        )
        controller = HBOController(system, config, seed=args.seed)
        engine = MonitoringEngine(controller, EventBasedPolicy())
        tracer.clock = engine.clock
        with instrumented(tracer, metrics):
            report = engine.run([], duration_s=args.duration_s)
        print(
            f"{args.scenario}-{args.taskset} on {args.device}: "
            f"{report.n_activations} activation(s), "
            f"final B={report.final_reward:+.3f}"
        )

    # The replay-check contract: the emitted file must be non-empty,
    # schema-valid, and reload as trace events.
    events = write_trace_json(tracer, args.out, include_wall=args.wall)
    reloaded = load_trace_json(args.out)
    validate_events(reloaded)
    if not reloaded or reloaded != events:
        print("error: exported trace is empty or does not round-trip",
              file=sys.stderr)
        return 1
    snapshot = metrics.snapshot()
    print(f"trace: {len(events)} spans -> {args.out} "
          f"(load at https://ui.perfetto.dev or chrome://tracing)")
    print(f"metrics: {len(snapshot['counters'])} counters, "
          f"{len(snapshot['gauges'])} gauges, "
          f"{len(snapshot['histograms'])} histograms")
    if args.metrics:
        write_metrics_json(metrics, args.metrics)
        print(f"metrics snapshot -> {args.metrics}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        dump_spec,
        get_scenario,
        render_run,
        run_scenario,
        scenario_names,
    )

    if args.scenario_command == "list":
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"{name:<20} {spec.serving.mode:<12} "
                  f"{spec.n_sessions:>3} sessions  {spec.description}")
        return 0
    if args.scenario_command == "export":
        text = dump_spec(get_scenario(args.name))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"scenario spec exported to {args.out}")
        else:
            print(text, end="")
        return 0
    # run
    config = HBOConfig(n_initial=args.initial, n_iterations=args.iterations)
    run = run_scenario(
        args.name,
        seed=args.seed,
        hbo=config,
        n_sessions=args.sessions,
        mode=args.mode,
    )
    print(render_run(run), end="")
    if args.export:
        from repro.scenarios import export_json

        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(export_json(run))
        print(f"replay artifact exported to {args.export}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("scenarios : SC1 (heavy objects), SC2 (light objects)")
    print("tasksets  : CF1 (6 AI tasks), CF2 (3 AI tasks)")
    print("devices   : " + ", ".join(device_names()))
    print("experiments: " + ", ".join(sorted(_EXPERIMENTS)))
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    zoo = ModelZoo(args.device)
    print(f"Table I — {args.device}")
    for model in model_names(args.device):
        profile = zoo.profile(model)
        cells = []
        for res_name in ("gpu", "nnapi", "cpu"):
            from repro.device.resources import resource_from_name

            resource = resource_from_name(res_name)
            cells.append(
                f"{res_name}="
                + (f"{profile.latency(resource):.1f}ms"
                   if profile.supports(resource) else "NA")
            )
        print(f"  {model:<22s} {' '.join(cells)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "tune": _cmd_tune,
        "fleet": _cmd_fleet,
        "trace": _cmd_trace,
        "scenario": _cmd_scenario,
        "list": _cmd_list,
        "profiles": _cmd_profiles,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Exit codes: 0 success, 1 infeasible input or configuration error, 2 a search
budget exceeded or an LP export refused as too large, 3 a reported cost that
its verification replay does not reproduce.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import chart as chartmod
from . import exact, harness, instances
from .core import (BudgetExceededError, GameError, load_actions,
                   load_instance, save_actions, save_instance, total_cost)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_UNVERIFIED = 3


def cost_text(cost: float) -> str:
    return f"{cost:.6f}" if abs(cost) < 1e15 else f"{cost:.6g}"


@click.group()
def cli() -> None:
    """Pod repositioning simulator and solver suite."""


@cli.command()
@click.option("--system", type=click.Choice(["small", "medium", "tiny"]),
              default="small", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--steps", "n", type=click.IntRange(min=0), default=None,
              help="Horizon length; defaults to the system's standard horizon.")
@click.option("--regime", type=click.Choice(list(instances.REGIMES)),
              default=instances.REGIME_RANDOM_GEOMETRIC, show_default=True,
              help="Departure regime.  --system tiny draws its horizon and "
                   "uniform departures from --seed and rejects --steps and --regime.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen(system: str, seed: int, n: int, regime: str, out: str) -> None:
    """Generate an instance JSON file plus a sidecar metadata file."""
    regime_source = click.get_current_context().get_parameter_source("regime")
    if system == "tiny" and (n is not None or regime_source != ParameterSource.DEFAULT):
        raise click.UsageError("--system tiny takes neither --steps nor --regime")
    meta = {"system": system, "seed": seed, "regime": regime}
    if system == "small":
        n = n if n is not None else 1000
        inst = instances.build_small_system(seed=seed, n=n, regime=regime)
        meta["pod_weights"] = instances.geometric_weights(
            instances.SMALL_N_PODS, instances.SMALL_WEIGHT_RATIO)
        meta["station_weights"] = list(instances.SMALL_STATION_WEIGHTS)
    elif system == "medium":
        n = n if n is not None else 20000
        inst = instances.build_medium_system(seed=seed, n=n, regime=regime)
        meta["pod_weights"] = instances.geometric_weights(
            instances.MEDIUM_N_PODS, instances.MEDIUM_WEIGHT_RATIO)
        meta["station_weights"] = list(instances.MEDIUM_STATION_WEIGHTS)
        meta["layout"] = {"grid_w": instances.MEDIUM_GRID_W,
                          "grid_h": instances.MEDIUM_GRID_H,
                          "stations": [list(s) for s in instances.MEDIUM_STATIONS]}
    else:
        inst = harness.build_tiny_random(seed)
        meta["regime"] = "random-uniform"
    meta["steps"] = inst.horizon
    save_instance(inst, out)
    Path(out).with_suffix(Path(out).suffix + ".meta.json").write_text(
        json.dumps(meta, indent=1) + "\n")
    click.echo(f"wrote {out} ({inst.n_places} places, {inst.n_pods} pods, "
               f"{inst.horizon} steps)")


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--policy", default="cheapest:decision", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.option("--actions-out", type=click.Path(dir_okay=False), default=None)
def run(instance: str, policy: str, seed: int, out_dir: str,
        actions_out: str) -> None:
    """Replay one policy on an instance."""
    inst = load_instance(instance)
    rows = harness.run_comparison(inst, [policy], seed=seed,
                                  out_dir=Path(out_dir) if out_dir else None)
    row = rows[0]
    if actions_out:
        save_actions(row.actions, actions_out)
    click.echo(f"{row.policy}: cost {cost_text(row.cost)} "
               f"(relative {row.relative_cost:.4f}, {row.decisions} decisions)")


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--policy", "policies", multiple=True, required=True,
              help="Repeatable; e.g. --policy random --policy tetris:frequency")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
def compare(instance: str, policies: tuple[str, ...], seed: int,
            out_dir: str) -> None:
    """Replay several policies on the identical instance."""
    inst = load_instance(instance)
    rows = harness.run_comparison(inst, list(policies), seed=seed,
                                  out_dir=Path(out_dir) if out_dir else None)
    for row in rows:
        click.echo(f"{row.policy}: cost {cost_text(row.cost)} "
                   f"(relative {row.relative_cost:.4f})")


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--exact", "use_exact", is_flag=True,
              help="Solve the whole horizon in one search.")
@click.option("--window", type=click.IntRange(min=1), default=None,
              help="Window size for the iterative solver.")
@click.option("--node-budget", type=click.IntRange(min=0), default=None,
              help=f"Search nodes for the whole solve, all windows together "
                   f"(default {exact.EXACT_NODE_BUDGET:,}).")
@click.option("--export-lp", type=click.Path(dir_okay=False), default=None)
@click.option("--actions-out", type=click.Path(dir_okay=False), default=None)
def solve(instance: str, use_exact: bool, window: int, node_budget: int,
          export_lp: str, actions_out: str) -> None:
    """Solve an instance exactly or window by window."""
    if use_exact and window is not None:
        raise click.UsageError("--exact and --window are mutually exclusive")
    if not use_exact and window is None and not export_lp:
        raise click.UsageError("choose --exact, --window or --export-lp")
    inst = load_instance(instance)
    if export_lp:
        exact.export_bip(inst, export_lp)
        click.echo(f"wrote {export_lp}")
        if not use_exact and window is None:
            return
    result = (exact.solve_exact(inst, node_budget=node_budget) if use_exact
              else exact.solve_iterative(inst, window, node_budget=node_budget))
    result.cost = harness.verify_cost(inst, "solve", result.actions, result.cost)
    if actions_out:
        save_actions(result.actions, actions_out)
    status = ("budget-limited" if not result.optimal
              else "optimal" if use_exact else "windows exact")
    click.echo(f"cost {cost_text(result.cost)} ({status}, {result.nodes} nodes), "
               f"lower bound {cost_text(result.lower_bound)}, {result.gap_text}")


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.argument("actions", type=click.Path(exists=True, dir_okay=False))
@click.option("--from", "t_from", type=int, default=0, show_default=True)
@click.option("--to", "t_to", type=int, default=None,
              help="End of the window (defaults to the full horizon).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--trace-csv", type=click.Path(dir_okay=False), default=None)
def chart(instance: str, actions: str, t_from: int, t_to: int, out: str,
          trace_csv: str) -> None:
    """Render the storage-area chart of a replay as SVG."""
    inst = load_instance(instance)
    if t_to is None:
        t_to = inst.horizon + 1
    # a feasible plan's trace has horizon + 1 snapshots: refuse before replaying
    if not 0 <= t_from < t_to <= inst.horizon + 1:
        raise ValueError("chart window outside the trace")
    acts = load_actions(actions)
    cost = total_cost(inst, acts)  # an infeasible plan raises here
    trace = chartmod.record_trace(inst, acts)
    Path(out).write_text(chartmod.chart_svg(trace, chartmod.ChartSpec(t_from, t_to)))
    if trace_csv:
        Path(trace_csv).write_text(chartmod.trace_csv(trace))
    click.echo(f"wrote {out} (cost {cost_text(cost)})")


@cli.group()
def study() -> None:
    """Reproduce the uniformity and seasonal experiments."""


@study.command()
@click.option("--seeds", type=click.IntRange(min=1), default=10, show_default=True,
              help="Number of seeds per regime (0..seeds-1).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def uniformity(seeds: int, out: str) -> None:
    """Cheapest-place versus the exact optimum across departure regimes."""
    report = harness.uniformity_study(range(seeds))
    lines = ["regime,mean_ratio"]
    for regime in instances.REGIMES:
        mean = report.mean(regime)
        lines.append(f"{regime},{mean:.9f}")
        click.echo(f"{regime}: cheapest/optimal = {mean:.6f}")
    if out:
        Path(out).write_text("\n".join(lines) + "\n")


@study.command()
@click.option("--seeds", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--steps", "n", type=click.IntRange(min=0), default=10000, show_default=True)
@click.option("--epoch", type=int, default=2000, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def seasonal(seeds: int, n: int, epoch: int, out: str) -> None:
    """Frequency- versus duration-sorted tetris under changing pod weights."""
    report = harness.seasonal_study(range(seeds), n=n, epoch=epoch)
    for name in ("seasonal_frequency", "seasonal_duration",
                 "plain_frequency", "plain_duration"):
        click.echo(f"median {name.replace('_', ' ')}: {report.median(name):.1f}")
    if out:
        lines = ["seed,seasonal_frequency,seasonal_duration,plain_frequency,plain_duration"]
        for i in range(seeds):
            lines.append(f"{i},{report.seasonal_frequency[i]:.6f},"
                         f"{report.seasonal_duration[i]:.6f},"
                         f"{report.plain_frequency[i]:.6f},"
                         f"{report.plain_duration[i]:.6f}")
        Path(out).write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except BudgetExceededError as err:
        click.echo(f"error: {err}", err=True)
        return EXIT_BUDGET
    except harness.CostMismatchError as err:
        click.echo(f"error: {err}", err=True)
        return EXIT_UNVERIFIED
    except click.ClickException as err:
        err.show()
        return EXIT_CONFIG
    except click.Abort:
        return EXIT_CONFIG
    except (GameError, ValueError, KeyError, TypeError, OSError) as err:
        click.echo(f"error: {err}", err=True)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

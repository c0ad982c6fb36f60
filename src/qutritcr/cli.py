"""Command-line entry points.

Times are in ns and frequencies in GHz throughout flags and files.  The
QUTRITCR_SEED environment variable overrides the config seed.  Errors,
unwritable paths too, end in an ``Error:`` line and exit status 1: the
command group (``_Commands.invoke``) maps them once for every command.
"""

from __future__ import annotations

import os
import sys

import click

from .calibrate import CalibrationStore
from .errors import InvalidParams, QutritCRError
from .experiments import (
    BELL_METHODS,
    ExperimentConfig,
    cmd_bell,
    cmd_calibrate,
    cmd_gatefid,
    cmd_rabi,
)


def _load_config(path: str | None, seed: int | None = None, shots: int | None = None) -> ExperimentConfig:
    from dataclasses import replace

    cfg = ExperimentConfig.from_json(path) if path else ExperimentConfig()
    env_seed = os.environ.get("QUTRITCR_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InvalidParams(f"QUTRITCR_SEED must be an integer, got {env_seed!r}") from None
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if shots is not None:
        cfg = replace(cfg, shots=shots)
    return cfg


def _require_store(path: str, cfg: ExperimentConfig) -> CalibrationStore:
    store = CalibrationStore.load(path, cfg.fingerprint())
    if store is None:
        raise click.ClickException(
            f"no calibration store matching this config at {path}; run `qutritcr calibrate` first"
        )
    return store


class _Commands(click.Group):
    """Commands whose QutritCRError or OSError ends in an ``Error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (QutritCRError, OSError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Commands)
def main():
    """Pulse-level qutrit cross-resonance toolkit."""


@main.command()
@click.option("--subspace", type=click.Choice(["01", "12"]), required=True)
@click.option("--control", type=click.Choice(["0", "1", "2", "all"]), default="all", show_default=True)
@click.option("--amp-ghz", type=float, default=None, help="CR drive amplitude (defaults to config scan amp)")
@click.option("--t-max-ns", type=float, default=600.0, show_default=True)
@click.option("--points", type=int, default=128, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
def rabi(subspace, control, amp_ghz, t_max_ns, points, config_path, out_dir):
    """Conditional Rabi sweep of a CR tone (Fig.-2-style)."""
    controls = (0, 1, 2) if control == "all" else (int(control),)
    sidecar = cmd_rabi(_load_config(config_path), subspace, controls, amp_ghz, t_max_ns, points, out_dir)
    for name, fit in sorted(sidecar["fits"].items()):
        if "error" in fit:
            click.echo(f"{name}: {fit['error']}")
        else:
            click.echo(f"{name}: freq {1e3 * fit['freq_ghz']:.4f} MHz, phase {fit['phase_rad']:+.3f} rad")
    for key, val in sorted(sidecar["summary"].items()):
        click.echo(f"{key}: {val:.4f}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--store", "store_path", type=click.Path(), required=True)
def calibrate(config_path, store_path):
    """Calibrate the single-qutrit and CR gate set; persist to a JSON store."""
    cmd_calibrate(_load_config(config_path), store_path)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--store", "store_path", type=click.Path(exists=True), required=True)
@click.option("--shots", type=int, default=None, help="overrides config shots")
@click.option("--seed", type=int, default=None, help="overrides config seed")
@click.option("--out", "out_dir", type=click.Path(), default=None)
@click.option("--method", type=click.Choice(BELL_METHODS), default="full", show_default=True)
def bell(config_path, store_path, shots, seed, out_dir, method):
    """Run the Bell-state preparation and report fidelity and concurrence."""
    cfg = _load_config(config_path, seed=seed, shots=shots)
    res = cmd_bell(cfg, _require_store(store_path, cfg), out_dir, method)
    for m in res.metrics:
        err = f" +/- {m.stderr:.4f}" if m.stderr is not None else ""
        click.echo(f"{m.name}: {m.value:.6f}{err}")
    click.echo(f"total duration: {res.duration_ns:.1f} ns")
    if not (res.metrics[0].value >= 0.95 and res.metrics[2].value >= 0.95):
        sys.exit(1)


@main.command()
@click.option("--gate", "gate_name", required=True)
@click.option("--store", "store_path", type=click.Path(exists=True), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def gatefid(gate_name, store_path, config_path):
    """Print the stored fidelity of one calibrated gate."""
    cfg = _load_config(config_path)
    cmd_gatefid(_require_store(store_path, cfg), gate_name)


if __name__ == "__main__":
    main()

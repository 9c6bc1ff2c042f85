"""Command-line harness for the numerical demonstrations.

Experiment subcommands write `payload.json` (deterministic given config and
seed), `meta.json` and CSV series under `--out/<experiment>/`, print one
line per verdict, and exit 0 only if every verdict passes.
"""

from __future__ import annotations

import inspect
import sys

import click

from .experiments import RUNNERS, ExperimentSpec
from .model import ModelConfig
from .optext import OperatorSyntaxError, parse_expr, print_expr


def _load_config(path) -> ModelConfig:
    if path is None:
        return ModelConfig()
    try:
        return ModelConfig.from_file(path)
    except ValueError as exc:  # bad JSON, not an object, unknown or invalid fields
        raise click.BadParameter(f"{path}: {exc}", param_hint="--config") from exc


def _spec_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="Model config JSON file.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default="results",
                      help="Output directory.")(fn)
    fn = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)(fn)
    fn = click.option("--svg", is_flag=True, help="Also emit SVG line charts.")(fn)
    fn = click.option("--tolerance", "tolerances", multiple=True, metavar="KEY=VALUE",
                      help="Override a verdict tolerance (repeatable).")(fn)
    return fn


def _parse_tolerances(pairs):
    out = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not _ or not key:
            raise click.BadParameter(f"expected KEY=VALUE, got {pair!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise click.BadParameter(f"tolerance {pair!r} is not a number") from exc
    return out


def _run(name, config_path, out_dir, seed, svg, tolerances=()):
    config = _load_config(config_path)
    try:
        spec = ExperimentSpec(config=config, seed=seed, out_dir=out_dir, emit_svg=svg,
                              tolerances=_parse_tolerances(tolerances))
    except ValueError as exc:  # an unknown key or a non-finite value
        raise click.BadParameter(str(exc), param_hint="--tolerance") from exc
    try:
        record = RUNNERS[name](spec)
    except ValueError as exc:  # a config the runner cannot use, such as charge 0
        raise click.BadParameter(str(exc), param_hint="--config") from exc
    record.write(out_dir)
    for v in record.verdicts:
        op = {"max": "<=", "exact": "==", "gt": ">", "lt": "<"}[v.mode]
        status = "PASS" if v.passed else "FAIL"
        click.echo(f"[{status}] {record.name}.{v.check}: {v.value:.6g} {op} {v.tolerance:.6g}")
    click.echo(
        f"{record.name}: {'all checks passed' if record.all_passed else 'CHECKS FAILED'} "
        f"({record.wall_time_s:.2f}s, drops={record.truncation_drops})"
    )
    sys.exit(0 if record.all_passed else 1)


@click.group()
def main():
    """Quantum electrostatics workbench: normal-ordered Coulomb terms for
    the Dirac field on truncated Fock spaces."""


# one subcommand per runner, its help the first paragraph of the runner's docstring
for _name, _runner in RUNNERS.items():
    def _make(name=_name, help_text=inspect.getdoc(_runner).split("\n\n")[0]):
        @main.command(name=name, help=help_text)
        @_spec_options
        def _cmd(config_path, out_dir, seed, svg, tolerances):
            _run(name, config_path, out_dir, seed, svg, tolerances)

        return _cmd

    _make()


@main.command("normal-order")
@click.argument("expression", required=False)
@click.option("--mode", type=click.Choice(["prescription", "wick"]),
              default="prescription", show_default=True,
              help="prescription drops contraction terms (:X:); wick keeps "
                   "them (equivalence-preserving).")
def normal_order_cmd(expression, mode):
    """Normal-order an operator expression given in the textual syntax
    (argument or stdin) and print the canonical result."""
    from .algebra import normal_order_prescription, wick_reorder

    text = expression if expression is not None else sys.stdin.read()
    try:
        expr = parse_expr(text)
    except OperatorSyntaxError as exc:
        raise click.ClickException(str(exc)) from exc
    out = normal_order_prescription(expr) if mode == "prescription" else wick_reorder(expr)
    click.echo(print_expr(out))


@main.command("print-config")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
def print_config_cmd(config_path):
    """Print the effective model configuration (defaults or a loaded file)."""
    click.echo(_load_config(config_path).to_json())


if __name__ == "__main__":
    main()

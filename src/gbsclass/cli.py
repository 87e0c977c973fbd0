"""Command-line interface.

Four subcommands: ``pairs`` and ``triples`` classify all normalized sets
at one dimension, ``invariants`` evaluates the exact invariants of one
set, and ``verify`` runs the dense-matrix verification suite.

Exit codes: 0 on success (including fully verified classifications), 1
when verification fails or a classification is only partial, 2 on usage
errors, 3 when a resource cap refuses the request.
"""

from __future__ import annotations

import json
import sys

import click

from .classify import (
    STATUS_PARTIAL,
    DimensionTooLarge,
    enumerate_pairs,
    enumerate_triples,
)
from .config import FORMATS, Config, load_config
from .oracle import CapExceeded, capped_prime_power, verification_suite
from .pauli import GpmSet, PowerOutOfRange, TableTooLarge, invariant_vector
from .residues import OutOfRange, factorize

EXIT_FAIL = 1
EXIT_RESOURCE = 3


def _config() -> Config:
    try:
        return load_config()
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"bad configuration: {exc}")


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise click.UsageError(f"--dim must be at least 2, got {dim}")


def _emit(classification, fmt: str) -> None:
    if fmt == "json":
        click.echo(classification.to_json())
    elif fmt == "csv":
        click.echo(classification.to_csv(), nl=False)
    else:
        click.echo(classification.to_text(), nl=False)


def _classify(enumerate_, dim: int, fmt: str | None, emit_witnesses: bool) -> None:
    cfg = _config()
    _check_dim(dim)
    try:
        result = enumerate_(dim, emit_witnesses, cfg.enum_cap, cfg.i3_probes, cfg.power_probes)
    except DimensionTooLarge as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    except PowerOutOfRange as exc:
        raise click.UsageError(str(exc))
    _emit(result, fmt or cfg.format)
    sys.exit(EXIT_FAIL if result.status == STATUS_PARTIAL else 0)


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(FORMATS),
    default=None,
    help="Output format (default from config, else text).",
)


@click.group()
def main() -> None:
    """Classify sets of maximally entangled Pauli basis states.

    Sets are given by exponent pairs: "s,t" names the unitary X^s Z^t and
    the bipartite state it prepares from the standard maximally entangled
    state.  Classification is up to local unitaries on both subsystems.
    """


@main.command()
@click.option("--dim", type=int, required=True, help="System dimension d.")
@format_option
@click.option("--emit-witnesses", is_flag=True, help="Attach a move trace per class.")
def pairs(dim: int, fmt: str | None, emit_witnesses: bool) -> None:
    """Classify all pairs {identity, X^s Z^t}.

    Examples:

      gbsclass pairs --dim 12

      gbsclass pairs --dim 9 --format json --emit-witnesses
    """
    _classify(enumerate_pairs, dim, fmt, emit_witnesses)


@main.command()
@click.option("--dim", type=int, required=True, help="System dimension d.")
@format_option
@click.option("--emit-witnesses", is_flag=True, help="Attach a move trace per class.")
def triples(dim: int, fmt: str | None, emit_witnesses: bool) -> None:
    """Classify all triples {identity, v1, v2}.

    Examples:

      gbsclass triples --dim 9

      gbsclass triples --dim 25 --format csv
    """
    _classify(enumerate_triples, dim, fmt, emit_witnesses)


@main.command()
@click.option("--dim", type=int, required=True, help="System dimension d.")
@click.option("--set", "set_text", required=True,
              help='Set members as "s,t;s,t;..." (whitespace ignored).')
@click.option("--a", "a_vals", type=int, multiple=True,
              help="Probe exponent (repeatable); default probes otherwise.")
@click.option("--pow", "pow_vals", type=int, multiple=True,
              help="Power map t (repeatable) applied before re-probing.")
@format_option
def invariants(dim: int, set_text: str, a_vals: tuple[int, ...],
               pow_vals: tuple[int, ...], fmt: str | None) -> None:
    """Evaluate the exact invariants of one set.

    Examples:

      gbsclass invariants --dim 9 --set "0,0;0,1;3,0" --a 3

      gbsclass invariants --dim 8 --set "0,0;0,1;4,2" --a 4 --pow 2
    """
    cfg = _config()
    _check_dim(dim)
    try:
        S = GpmSet.from_text(set_text, dim)
    except ValueError as exc:
        raise click.UsageError(f"bad --set: {exc}")
    try:
        iv = invariant_vector(
            S,
            tuple(a_vals) or cfg.i3_probes,
            tuple(pow_vals) or cfg.power_probes,
        )
    except TableTooLarge as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    except (PowerOutOfRange, OutOfRange) as exc:
        raise click.UsageError(str(exc))

    probes = sorted(iv.i3)
    fmt = fmt or cfg.format
    if fmt == "json":
        block = iv.to_dict()
        block["I1"] = iv.i1.value()
        for t, pb in iv.powered.items():
            block["powered"][str(t)]["I1"] = pb.i1.value()
        click.echo(json.dumps(
            {"dimension": dim, "set": S.to_text(), "invariants": block},
            indent=2, sort_keys=True,
        ))
    elif fmt == "csv":
        lines = [f"I1,{iv.i1.value():.2f}"]
        for a in probes:
            lines.append(f"I2_{a},{iv.i2[a]}")
            lines.append(f"I3_{a},{iv.i3[a]}")
        for t, pb in sorted(iv.powered.items()):
            lines.append(f"pow{t}_I1,{pb.i1.value():.2f}")
            for a in sorted(pb.i3):
                lines.append(f"pow{t}_I2_{a},{pb.i2[a]}")
                lines.append(f"pow{t}_I3_{a},{pb.i3[a]}")
        click.echo("\n".join(lines))
    else:
        click.echo(f"set {{{S.to_text()}}} at d={dim}")
        click.echo(f"I1 = {iv.i1.value():.2f}")
        for a in probes:
            click.echo(f"I2[{a}] = {iv.i2[a]}")
            click.echo(f"I3[{a}] = {iv.i3[a]}")
        for t, pb in sorted(iv.powered.items()):
            parts = [f"I1 = {pb.i1.value():.2f}"]
            for a in sorted(pb.i3):
                parts.append(f"I2[{a}] = {pb.i2[a]}")
                parts.append(f"I3[{a}] = {pb.i3[a]}")
            click.echo(f"pow {t}: " + "  ".join(parts))
    sys.exit(0)


@main.command()
@click.option("--dim", type=int, default=None, help="System dimension d.")
@click.option("--prime-power", "pp", nargs=2, type=int, default=None,
              metavar="P ALPHA", help="Dimension given as a prime power.")
def verify(dim: int | None, pp: tuple[int, int] | None) -> None:
    """Run the dense-matrix verification suite at one dimension.

    Examples:

      gbsclass verify --prime-power 3 2

      gbsclass verify --dim 7
    """
    if (dim is None) == (pp is None):
        raise click.UsageError("pass exactly one of --dim or --prime-power")
    if pp is not None:
        p, alpha = pp
        try:
            prime = factorize(max(p, 2)) == [(p, 1)]
        except OutOfRange as exc:
            raise click.UsageError(str(exc))
        if not prime:
            raise click.UsageError(f"{p} is not prime")
        if alpha < 1:
            raise click.UsageError(f"alpha must be positive, got {alpha}")
    else:
        assert dim is not None
        _check_dim(dim)
    try:
        d = dim if pp is None else capped_prime_power(p, alpha)
        results = verification_suite(d)
    except CapExceeded as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    failures = 0
    for name, ok in results:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    click.echo(f"{len(results) - failures}/{len(results)} checks passed at d={d}")
    sys.exit(EXIT_FAIL if failures else 0)


if __name__ == "__main__":
    main()

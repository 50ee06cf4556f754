"""Command-line front end.

Subcommands: ``gen`` (reference waves as CSV), ``simulate`` (one assignment
through a netlist), ``verify`` (equivalence proof against the Boolean
oracle), ``stats`` (ambiguity and window-length figures) and ``hyperspace``
(multi-bit combination demos).

Exit codes: 0 success, 1 verification failure (or ambiguity under
``--strict``), 2 usage or configuration error, a size too large to
allocate included.  Requested artifacts go to stdout (or ``--out``);
diagnostics go to stderr.  All output is deterministic given the flags,
and JSON keys are emitted in a fixed order so golden-file diffs stay
stable.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NoReturn

import click

from . import hyperspace as hs
from .errors import NetlistError, NoiseLogicError
from .generators import gen_disjoint_spike_pairs, gen_rtw_pairs, reference_pairs
from .netlist import CompiledNetwork, lower, parse
from .signals import SPIKE, GeneratorConfig, universe_rtw, universe_spike
from .simulator import (
    BACKENDS,
    ambiguity_monte_carlo,
    backend_family,
    min_steps_for,
    rounded_steps_for,
    run,
    verify_equivalence,
)
from .waveio import format_waveform_csv, write_waveform_csv

_DEFAULT_EPSILONS = (1e-3, 1e-6, 1e-12, 1e-25)

# What a command reports as a usage or configuration error, exit 2: the
# package's own errors, and an allocation NumPy refuses, such as the waves of
# a --steps or --sample past any memory.
_CONFIG_ERRORS = (NoiseLogicError, MemoryError)


def _fail_config(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@contextmanager
def _writing(path: str):
    """Exit 2, naming ``path`` and the reason, when writing it raises ``OSError``."""
    try:
        yield
    except OSError as exc:
        _fail_config(f"cannot write {path}: {exc.strerror or exc}")


def _emit(text: str, out: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
    else:
        with _writing(out):
            Path(out).write_text(text, encoding="utf-8")


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


seed_option = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0,
                           show_default=True, help="64-bit generator seed.")
steps_option = click.option("--steps", type=int, default=256, show_default=True,
                            help="Clock steps per waveform.")
# Default: the RTW backend with the multiplicative NOT, second in the table.
backend_option = click.option("--backend", type=click.Choice(BACKENDS),
                              default=BACKENDS[1], show_default=True)
rate_options = (
    click.option("--rate-h", type=float, default=0.25, show_default=True,
                 help="Per-step spike probability of the High reference."),
    click.option("--rate-l", type=float, default=0.25, show_default=True,
                 help="Per-step spike probability of the Low reference."),
)
out_option = click.option("--out", default="-", show_default=True,
                          help="Output path, or - for stdout.")


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@click.group()
def main() -> None:
    """Noise-carried logic: generation, simulation, verification, statistics."""


@main.command("gen")
@_add_options([seed_option, steps_option, backend_option, *rate_options, out_option])
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def cmd_gen(seed, steps, backend, rate_h, rate_l, out, fmt) -> None:
    """Emit a reference pair and its universe (columns H, L, U)."""
    try:
        config = GeneratorConfig(seed=seed, steps=steps, spike_rate_h=rate_h, spike_rate_l=rate_l)
        family = backend_family(backend)
        pair = reference_pairs(family, seed, config)
        universe = (universe_spike if family == SPIKE else universe_rtw)(pair)
    except _CONFIG_ERRORS as exc:
        _fail_config(str(exc) or "out of memory")
    columns = {"H": pair.h, "L": pair.l, "U": universe}
    if fmt == "csv":
        _emit(format_waveform_csv(columns), out)
    else:
        doc = {
            "family": family,
            "seed": seed,
            "steps": steps,
            "H": pair.h.to_list(),
            "L": pair.l.to_list(),
            "U": universe.to_list(),
        }
        _emit(_json(doc), out)


def _parse_assignment(text: str) -> dict[str, int]:
    assignment = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if not name or value not in ("0", "1"):
            raise NoiseLogicError(f"binding {item!r} must look like name=0 or name=1")
        if name in assignment:
            raise NoiseLogicError(f"input {name!r} is bound more than once")
        assignment[name] = int(value)
    if not assignment:
        raise NoiseLogicError("empty assignment; use --assign a=1,b=0,...")
    return assignment


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NetlistError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except OSError as exc:
        raise NetlistError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_netlist(path: str):
    return parse(_read_text(path))


@main.command("simulate")
@click.argument("netlist_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--assign", "assign_text", required=True,
              help="Input bindings, e.g. a=1,b=0,cin=1.")
@_add_options([seed_option, steps_option, backend_option, *rate_options, out_option])
@click.option("--waves", type=click.Path(dir_okay=False), default=None,
              help="Also dump every wire waveform to this CSV file.")
@click.option("--strict", is_flag=True, help="Exit 1 when any wire is ambiguous.")
def cmd_simulate(netlist_path, assign_text, seed, steps, backend, rate_h, rate_l,
                 out, waves, strict) -> None:
    """Run one input assignment through a netlist on a noise backend."""
    if waves == "-":
        _fail_config("--waves needs a file path; '-' (stdout) is where the JSON report goes")
    try:
        ast = _load_netlist(netlist_path)
        network = lower(ast)
        assignment = _parse_assignment(assign_text)
        config = GeneratorConfig(seed=seed, steps=steps, spike_rate_h=rate_h, spike_rate_l=rate_l)
        result = run(network, backend, assignment, config)
    except _CONFIG_ERRORS as exc:
        _fail_config(str(exc) or "out of memory")
    doc = {
        "netlist": str(netlist_path),
        "backend": backend,
        "seed": seed,
        "steps": steps,
        "assignment": {name: assignment[name] for name in network.inputs},
        "outputs": {
            name: {"value": c.verdict.value, "decided_at": c.decided_at}
            for name, c in result.output_classifications.items()
        },
        "ambiguous_wires": [
            {"wire": name, "detail": result.classifications[name].detail}
            for name in result.ambiguous_wires
        ],
        "wire_count": len(network.wires),
        "primitive_count": len(network.is_not),
    }
    if waves:
        # Opened here, so that it exits 2 before any output is written.
        with _writing(waves):
            open(waves, "wb").close()
    _emit(_json(doc), out)
    if waves:
        with _writing(waves):
            write_waveform_csv(waves, {name: result.waveforms[name] for name in network.wires})
    if strict and result.ambiguous_wires:
        click.echo(f"error: {len(result.ambiguous_wires)} ambiguous wire(s)", err=True)
        sys.exit(1)


@main.command("verify")
@click.argument("netlist_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--backends", "backend_names", default="all", show_default=True,
              help="Comma-separated backend list, or 'all'.")
@_add_options([seed_option, steps_option, *rate_options, out_option])
@click.option("--sample", type=int, default=None,
              help="Probe this many random assignments instead of all of them.")
@click.option("--network", "network_path", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="Check this compiled-network JSON against the netlist's oracle.")
def cmd_verify(netlist_path, backend_names, seed, steps, rate_h, rate_l, out,
               sample, network_path) -> None:
    """Prove a netlist's noise semantics equal to its Boolean semantics."""
    try:
        ast = _load_netlist(netlist_path)
        names = BACKENDS if backend_names == "all" else tuple(
            name.strip() for name in backend_names.split(",") if name.strip()
        )
        unknown = [name for name in names if name not in BACKENDS]
        if unknown:
            raise NoiseLogicError(f"unknown backend(s): {', '.join(unknown)}")
        if not names:
            raise NoiseLogicError("empty backend list; use --backends all or a,b,...")
        if len(set(names)) < len(names):
            raise NoiseLogicError(f"backend {next(n for n in names if names.count(n) > 1)!r} "
                                  "is named more than once")
        # Lowered once here, not once per backend inside verify_equivalence.
        network = (lower(ast) if network_path is None
                   else CompiledNetwork.from_json(_read_text(network_path)))
        config = GeneratorConfig(seed=seed, steps=steps, spike_rate_h=rate_h, spike_rate_l=rate_l)
        reports = [
            verify_equivalence(ast, backend, config, network=network, sample=sample)
            for backend in names
        ]
    except _CONFIG_ERRORS as exc:
        _fail_config(str(exc) or "out of memory")
    all_ok = all(r.ok for r in reports)
    doc = {
        "netlist": str(netlist_path),
        "seed": seed,
        "steps": steps,
        "backends": [r.to_doc() for r in reports],
        "pass": all_ok,
    }
    _emit(_json(doc), out)
    if not all_ok:
        for r in reports:
            example = r.counterexample()
            if example is not None:
                click.echo(
                    f"counterexample [{r.backend}]: assignment {example['assignment']} "
                    f"output {example['output']} expected {example['expected']} "
                    f"got {example['got']}",
                    err=True,
                )
            for incident in r.ambiguous[:1]:
                click.echo(
                    f"ambiguous [{r.backend}]: wire {incident['wire']} "
                    f"under {incident['assignment']}",
                    err=True,
                )
        sys.exit(1)


@main.command("stats")
@click.option("--n", "window", type=int, default=None,
              help="Window length for the ambiguity Monte-Carlo estimate.")
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.option("--epsilon", type=float, multiple=True,
              help="Extra reliability target(s) for the window-length table.")
@_add_options([seed_option, out_option])
def cmd_stats(window, trials, epsilon, seed, out) -> None:
    """Ambiguity probability (analytic and Monte-Carlo) and window lengths."""
    try:
        ambiguity = None
        if window is not None:
            ambiguity = ambiguity_monte_carlo(window, trials, seed).to_doc()
        targets = list(_DEFAULT_EPSILONS) + [e for e in epsilon if e not in _DEFAULT_EPSILONS]
        table = []
        for eps in targets:
            steps_le = min_steps_for(eps)
            steps_rounded = rounded_steps_for(eps)
            table.append({
                "epsilon": eps,
                "steps_le": steps_le,
                "steps_rounded": steps_rounded,
                "residual_le": 0.5 ** steps_le,
                "residual_rounded": 0.5 ** steps_rounded,
            })
    except _CONFIG_ERRORS as exc:
        _fail_config(str(exc) or "out of memory")
    doc = {"ambiguity": ambiguity, "min_steps": table}
    _emit(_json(doc), out)


@main.command("hyperspace")
@click.option("--family", type=click.Choice(["rtw", "spike"]), default="rtw",
              show_default=True)
@click.option("--bits", "bits_text", required=True,
              help="Bit pattern, e.g. 10110 (1 = High, 0 = Low).")
@click.option("--max-bits", type=int, default=hs.DEFAULT_MAX_BITS, show_default=True,
              help="Demo-size cap on the number of bits.")
@_add_options([seed_option, steps_option, out_option])
def cmd_hyperspace(family, bits_text, max_bits, seed, steps, out) -> None:
    """Combine N bits on one wire; contrast squeezed and non-squeezed forms."""
    try:
        if not bits_text or any(c not in "01" for c in bits_text):
            raise NoiseLogicError(f"--bits must be a non-empty 0/1 string, got {bits_text!r}")
        bits = tuple(int(c) for c in bits_text)
        hs.check_bit_count(len(bits), max_bits)   # before the pairs, whose draw grows with N
        if family == "rtw":
            pairs = gen_rtw_pairs(seed, steps, len(bits))
            non_squeezed = hs.rtw_product_vector(pairs, bits)
            squeezed = hs.squeezed_collapse_demo(pairs, bits)
            recovered = None
            squeezed_recovered = None
        else:
            pairs = gen_disjoint_spike_pairs(seed, steps, len(bits))
            non_squeezed = hs.spike_superposition(pairs, bits)
            squeezed = hs.spike_superposition(pairs, bits, squeezed=True)
            recovered = "".join(
                "?" if b is None else str(b) for b in hs.recover_bits(non_squeezed)
            )
            squeezed_recovered = "".join(
                "?" if b is None else str(b) for b in hs.recover_bits(squeezed)
            )
    except _CONFIG_ERRORS as exc:
        _fail_config(str(exc) or "out of memory")
    doc = {
        "family": family,
        "N": len(bits),
        "bits": bits_text,
        "zero_count": non_squeezed.zero_count,
        "collapsed": squeezed.collapsed,
        "squeezed_zero_count": squeezed.zero_count,
        "recovered_bits": recovered,
        "squeezed_recovered_bits": squeezed_recovered,
    }
    _emit(_json(doc), out)


if __name__ == "__main__":
    main()

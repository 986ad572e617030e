"""Command-line interface.

Subcommands: ``model`` (generate benchmark networks into container files),
``contract`` (exact contraction), ``bp`` (message passing), ``expand``
(partitioned expansion with a named preset), ``infinite`` (strip
free-energy estimates) and ``bench`` (accuracy suites as CSV). The bench
command exits non-zero if the run's internal exactness identities fail.

``expand`` places the preset on the lattice layout that ``model`` records
in the container file, and fails with a named error when there is none or
when it is not the preset's lattice.

A package error (a network, tensor or container error) ends any command
with one ``pne: error: ...`` line on standard error and exit status 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from pne.io import ContainerError
from pne.network import NetworkError
from pne.tensor import TensorError


def _parse_shape(text: str) -> tuple[int, ...]:
    """The argparse type of a shape flag: ``3x3`` -> (3, 3), '' -> ().

    A malformed shape is a usage error naming the flag; whether the extents
    suit the model is checked where they are used."""
    try:
        return tuple(int(x) for x in text.lower().replace("x", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a shape such as 3x3 or 2x2x2") from None


def cmd_model(args) -> int:
    from pne import io as pio
    from pne.models import BETA_C_2D, BETA_C_3D, ModelSpec, finite_patch

    beta = args.beta
    if args.temp_rel_tc is not None:
        base = BETA_C_3D if args.model == "ising3d" else BETA_C_2D
        beta = base / args.temp_rel_tc
    spec = ModelSpec(
        kind=args.model,
        beta=beta,
        bias=args.bias,
        seed=args.seed,
        block_factors=args.block or None,
        patch=args.patch,
        boundary=args.boundary,
        chi=args.chi,
    )
    grid = finite_patch(spec)
    pio.save_grid(args.out, grid)
    print(f"wrote {args.out}: {len(grid.net.nodes)} nodes, {len(grid.net.edges)} edges")
    return 0


def cmd_contract(args) -> int:
    from pne import io as pio
    from pne.network import contract, plan_order

    net = pio.load_network(args.netfile)
    value = contract(net)
    plan = plan_order(net)
    if value.ndim == 0:
        print(f"scalar = {float(value)!r}")
    else:
        print(f"open tensor shape {value.shape}, 2-norm = {float(np.linalg.norm(value.ravel()))!r}")
    print(f"plan: total flops {plan.total_flops}, peak step {plan.peak_step_flops}, "
          f"peak intermediate entries {plan.peak_result_entries}")
    return 0


def cmd_bp(args) -> int:
    from pne import io as pio
    from pne.belief import bp_scalar, run_bp
    from pne.network import contract

    net = pio.load_network(args.netfile)
    state = run_bp(net, tol=args.tol, max_iter=args.max_iter, damping=args.damping, seed=args.seed)
    print(f"converged = {state.converged} after {state.iterations} sweeps "
          f"(max residual {state.max_residual:.3e})")
    if state.converged and net.is_closed:
        est = bp_scalar(net, state)
        print(f"fixed-point estimate = {est!r}")
        if args.exact:
            ex = float(contract(net))
            print(f"exact = {ex!r}  rel error = {abs((ex - est) / ex):.6e}")
    if args.save_state:
        pio.save_bp_state(args.save_state, state)
        print(f"state written to {args.save_state}")
    return 0


def cmd_expand(args) -> int:
    from pne import io as pio
    from pne.expansion import evaluate, evaluate_residue
    from pne.network import contract
    from pne.presets import build_preset

    grid = pio.load_grid(args.netfile)
    pre = build_preset(
        args.preset, grid, projectors=args.projector, rank=args.rank, seed=args.seed
    )
    result = evaluate(pre.expansion, workers=args.workers)
    value = np.asarray(result.value) * pre.scale
    print(f"preset {args.preset} ({pre.expansion.form}, {len(pre.expansion.terms)} terms)")
    for term, tval in zip(pre.expansion.terms, result.term_values):
        mag = float(tval) if np.asarray(tval).ndim == 0 else float(np.linalg.norm(np.asarray(tval).ravel()))
        print(f"  {''.join(term.pattern)}  coeff {term.coefficient:+d}  value {mag * pre.scale!r}")
    if value.ndim == 0:
        print(f"expansion value = {float(value)!r}")
    else:
        print(f"expansion tensor 2-norm = {float(np.linalg.norm(value.ravel()))!r}")
    if args.exact:
        ex = contract(pre.net)
        if ex.ndim == 0:
            print(f"exact = {float(ex) * pre.scale!r}  rel error = "
                  f"{abs((float(ex) - float(result.value)) / float(ex)):.6e}")
        else:
            num = float(np.linalg.norm((ex - result.value).ravel()))
            den = float(np.linalg.norm(ex.ravel()))
            print(f"exact tensor 2-norm = {den * pre.scale!r}  rel 2-norm error = {num / den:.6e}")
    if args.residue:
        res = evaluate_residue(pre.expansion, cross_check=False)
        mag = float(res) if res.ndim == 0 else float(np.linalg.norm(res.ravel()))
        print(f"residue (direct complement evaluation) = {mag * pre.scale!r}")
    return 0


def cmd_infinite(args) -> int:
    from pne.infinite import cylinder_baseline, free_energy, prepare_strips
    from pne.models import (
        BETA_C_2D,
        aklt_norm_tensor,
        block_unit,
        ising_free_energy_2d,
        ising_unit_tensor,
        random_tensor,
    )

    beta = args.beta if args.beta is not None else BETA_C_2D
    if args.model == "ising2d":
        unit = ising_unit_tensor(2, beta)
    elif args.model == "aklt":
        unit = aklt_norm_tensor()
    else:
        unit = random_tensor((args.chi,) * 4, bias=args.bias, seed=args.seed)
    if args.block:
        unit = block_unit(unit, args.block).materialize()
        sites = int(np.prod(args.block))
    else:
        sites = 1
    ctx = prepare_strips(unit)
    axes = "vh" if args.axes == "vh" else "v"
    print(f"{'L':>3} {'f per site':>16} {'terms':>6}" + ("  {:>12}".format("err vs exact") if args.model == "ising2d" else ""))
    for width in range(2, args.width + 1):
        res = free_energy(unit, width, axes=axes, mode="all", ctx=ctx)
        f_site = res.value / sites
        line = f"{width:>3} {f_site:>16.10f} {len(res.terms):>6}"
        if args.model == "ising2d":
            f_exact = ising_free_energy_2d(beta)
            line += f"  {abs((f_site - f_exact) / f_exact):>12.3e}"
        print(line)
    if args.cylinder:
        for width in range(2, args.width + 1, 2):
            f_cyl = cylinder_baseline(unit, width) / sites
            line = f"cylinder L={width}: f = {f_cyl:.10f}"
            if args.model == "ising2d":
                f_exact = ising_free_energy_2d(beta)
                line += f"  err {abs((f_cyl - f_exact) / f_exact):.3e}"
            print(line)
    return 0


def cmd_bench(args) -> int:
    from pne.bench import run_suite, suite_names

    if args.suite == "list":
        print("\n".join(suite_names()))
        return 0
    result = run_suite(
        args.suite,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        out=args.out,
    )
    if not args.out:
        sys.stdout.write(result.csv)
    else:
        print(f"wrote {args.out} ({len(result.records)} records)")
    print(f"internal exactness identities: {'ok' if result.identities_ok else 'FAILED'}",
          file=sys.stderr)
    return 0 if result.identities_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pne",
        description="Partitioned network expansions for approximate tensor network contraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="generate a benchmark network container file")
    p.add_argument("--model", required=True, choices=["ising2d", "ising3d", "aklt", "random"])
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--temp-rel-tc", type=float, default=None, help="temperature in units of T_c")
    p.add_argument("--bias", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chi", type=int, default=4, help="extent for random tensors")
    p.add_argument("--block", type=_parse_shape, default=None, help="blocking factors, e.g. 4x4 or 2x2x2")
    p.add_argument("--patch", type=_parse_shape, required=True, help="patch shape, e.g. 3x3 or 2x2x2")
    p.add_argument("--boundary", default="bp", choices=["bp", "open"],
                   help="cap the patch with uniform BP messages or leave it open (random grids have no caps)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("contract", help="exactly contract a network file")
    p.add_argument("netfile")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("bp", help="run message passing on a network file")
    p.add_argument("netfile")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--damping", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="also contract exactly and report the error")
    p.add_argument("--save-state", default=None, help="write the message state to a container file")
    p.set_defaults(func=cmd_bp)

    p = sub.add_parser("expand", help="evaluate a partitioned expansion of a network file")
    p.add_argument("netfile")
    p.add_argument("--preset", required=True)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--projector", default="bp", choices=["bp", "weights", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--residue", action="store_true", help="also evaluate the complement residue")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("infinite", help="strip free-energy estimates for uniform lattices")
    p.add_argument("--model", default="ising2d", choices=["ising2d", "aklt", "random"])
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--bias", type=float, default=0.2)
    p.add_argument("--chi", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block", type=_parse_shape, default="2x2", help="blocking factors ('' to disable)")
    p.add_argument("--width", type=int, default=4, help="largest strip width L")
    p.add_argument("--axes", default="vh", choices=["v", "vh"])
    p.add_argument("--cylinder", action="store_true", help="also print the cylinder baseline")
    p.set_defaults(func=cmd_infinite)

    p = sub.add_parser("bench", help="run a benchmark suite; 'list' prints the names")
    p.add_argument("suite")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetworkError, TensorError, ContainerError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

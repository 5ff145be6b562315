"""Job lists of the three benchmark workloads.

A workload is a list of jobs run one after another in a single process
(a closed loop with one client).  Each job is either a prover job
(computing values or building certificates; its time counts towards
``certify_s``) or a verifier job (re-checking a certificate; ``check_s``).
Every job returns a JSON-able answer that ``run.py`` compares with the
frozen truth in ``expected.json``.

The seed reaches the program only through the inputs built here: the
vertex relabellings of the ``coeff`` workload and the ``--seed`` of the
``choosable --stress`` commands.  The ``transfer`` inputs do not depend
on the seed, because relabelling Q changes the cost of the windowed scan
by large factors and would make that workload unsteady.

Program functions are always looked up on their module at call time
(``transfer.build_phi``, never a name bound at import), so the tracer in
``spans.py`` sees every call.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Optional

import graphpoly.certificates as certificates
import graphpoly.choosability as choosability
import graphpoly.cli as cli
import graphpoly.coefficients as coefficients
import graphpoly.doubling as doubling
import graphpoly.graphio as graphio
import graphpoly.graphs as graphs
import graphpoly.orientations as orientations
import graphpoly.transfer as transfer

CERTIFY = "certify"
CHECK = "check"

WORKLOADS = ("transfer", "coeff", "certify_check")


@dataclass
class Job:
    """One unit of work with a frozen expected answer.

    ``key`` names the expected answer in ``expected.json``; relabelled
    jobs share the key of their canonical graph, because their answer
    must not depend on the labelling, and "accepted" stands for a check
    that passes.  A ``forged`` job checks a certificate whose true
    verdict is "not verified".
    """

    name: str
    role: str
    run: Callable[[dict], object]
    key: str
    forged: bool = False
    tiny: bool = False


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    files: dict[str, dict] = field(default_factory=dict)  # file name -> certificate


# ---------------------------------------------------------------------------
# transfer: even-cycle trace certificates, built and then checked
# ---------------------------------------------------------------------------

# (Q spec, even cycle length k, in the tiny set).  All Q have even
# degrees and at most 12 vertices; cyclepower:8:3 at k = 64 overflows the
# int64 guard and runs the big-integer sparse products.  A pass takes
# about 6 s, so a run times every job several times.
TRANSFER_CASES = (
    ("cycle:5", 4, True),
    ("cyclepower:8:2", 4, True),
    ("cyclepower:10:2", 4, False),
    ("cyclepower:10:2", 8, False),
    ("cyclepower:11:2", 4, False),
    ("cyclepower:8:3", 64, False),
)


def _build_transfer() -> Workload:
    jobs = []
    for spec, k, tiny in TRANSFER_CASES:
        q = graphio.parse_graph_spec(spec)
        key = f"trace:{spec}:k{k}"

        def prove(ctx, q=q, k=k, key=key):
            cert = transfer.even_cycle_certificate(q, k)
            ctx[key] = cert
            return {f: cert[f] for f in ("witness_exponent", "witness_value", "trace_value", "at_bound")}

        def check(ctx, key=key):
            return certificates.check_certificate(ctx[key]).ok

        jobs.append(Job(key, CERTIFY, prove, key, tiny=tiny))
        jobs.append(Job(f"check:{key}", CHECK, check, "accepted", tiny=tiny))
    return Workload("transfer", jobs)


# ---------------------------------------------------------------------------
# coeff: central coefficients, support scans and AT numbers; no transfer
# ---------------------------------------------------------------------------

# Products of 30-32 edges, each relabelled at random this many times.  A
# draw costs up to 10x the cheapest one, so many small draws keep the
# per-seed total steady where a few relabelled C4 x C6 (0.3-3.9 s each)
# would not.  Each draw runs under a fixed expansion budget, so a bad
# draw ends as a counted budget failure, not a runaway.
RELABEL_DRAWS = {"product:cycle:4:cycle:4": 24, "product:cycle:3:cycle:5": 12}
RELABEL_BUDGET = 10**7

# f-plans at the central exponent: build_plan computes the central
# coefficient (tau_value) and check recomputes it, as build_plan has no
# edge limit; the witness on more than 26 edges is accepted structurally.
# These checks give the verifier side 0.2-0.35 s jobs, which time far
# more steadily than checks of a few milliseconds.
FPLAN_SPECS = ("product:cycle:4:cycle:6", "product:cycle:5:cycle:6", "product:cycle:6:cycle:6")
CENTRAL_SPECS = ("product:cycle:4:cycle:6", "product:complete:5:cycle:4")
# Graphs of at most 20 edges, where the enumeration engine of
# method="both" stays cheap; None means the central exponent.
BOTH_CASES = (
    ("petersen", (0, 1, 1, 2, 2, 2, 1, 2, 2, 2)),
    ("complete:5", None),
    ("product:cycle:3:cycle:3", None),
    ("cyclepower:9:2", None),
    ("cyclepower:10:2", None),
)
AT_SPECS = ("petersen", "product:cycle:3:cycle:3", "product:complete:3:cycle:4", "cyclepower:7:2")
# Fails at the seed: the DP exceeds this budget after about 3 s.  Its
# true magnitude is |tr Phi^4| of cyclepower:10:2 (trace law).
BUDGET_SPEC = "product:cyclepower:10:2:cycle:4"
BUDGET_LIMIT = 10**6


def relabel(g: graphs.SignedMultigraph, rng: random.Random) -> graphs.SignedMultigraph:
    """g with its vertices renamed by a random permutation drawn from rng."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return graphs.make_graph(g.n, [(perm[u - 1], perm[v - 1], tag) for u, v, tag in g.edges])


def _central(g: graphs.SignedMultigraph, *, budget: Optional[int] = None) -> int:
    return coefficients.coefficient(g, coefficients.central_exponent(g), budget=budget)


def _build_coeff(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = []
    proved = []
    # Certificates and their checks come first, while the heap is small;
    # the jobs that grow it by 100 MB or more (K5 x C4, the budget job)
    # come after them.
    for spec in FPLAN_SPECS:
        g = graphio.parse_graph_spec(spec)
        key = f"fplan:{spec}"
        proved.append((key, False))

        def fplan(ctx, g=g, key=key):
            cert = doubling.epsilon_search(doubling.build_plan(g, coefficients.central_exponent(g)))
            ctx[key] = cert
            return {"tau_value": cert["plan"]["tau_value"], "f": cert["f"], "epsilon": cert["epsilon"]}

        jobs.append(Job(key, CERTIFY, fplan, key))
    for spec in AT_SPECS:
        g = graphio.parse_graph_spec(spec)
        key = f"at_exact:{spec}"
        proved.append((key, spec == "petersen"))

        def at_exact(ctx, g=g, key=key):
            cert = choosability.at_certificate_exact(g)
            ctx[key] = cert
            return {f: cert[f] for f in ("at_bound", "witness_exponent", "witness_value")}

        jobs.append(Job(key, CERTIFY, at_exact, key, tiny=spec == "petersen"))
    c4c4 = graphio.parse_graph_spec("product:cycle:4:cycle:4")

    def choosable_cert(ctx, key="choosable:C4xC4:f3"):
        cert = choosability.coefficient_choosability_certificate(c4c4, [3] * c4c4.n)
        ctx[key] = cert
        return {f: cert[f] for f in ("witness_exponent", "witness_value")}

    jobs.append(Job("choosable:C4xC4:f3", CERTIFY, choosable_cert, "choosable:C4xC4:f3"))
    proved.append(("choosable:C4xC4:f3", False))
    for key, tiny in proved:
        jobs.append(Job(f"check:{key}", CHECK,
                        lambda ctx, key=key: certificates.check_certificate(ctx[key]).ok,
                        "accepted", tiny=tiny))
    for spec in CENTRAL_SPECS:
        g = graphio.parse_graph_spec(spec)
        jobs.append(Job(f"central:{spec}", CERTIFY, lambda ctx, g=g: _central(g),
                        f"central:{spec}", tiny=spec == CENTRAL_SPECS[0]))
    for spec, draws in RELABEL_DRAWS.items():
        base = graphio.parse_graph_spec(spec)
        for i in range(draws):
            h = relabel(base, rng)
            jobs.append(Job(f"relabelled:{spec}:{i}", CERTIFY,
                            lambda ctx, h=h: abs(_central(h, budget=RELABEL_BUDGET)),
                            f"abs_central:{spec}", tiny=i < 2))
    for spec, xi in BOTH_CASES:
        g = graphio.parse_graph_spec(spec)
        xi = xi or coefficients.central_exponent(g)
        jobs.append(Job(f"both:{spec}", CERTIFY,
                        lambda ctx, g=g, xi=xi: coefficients.coefficient(g, xi, method="both"),
                        f"both:{spec}", tiny=spec == "petersen"))
    big = graphio.parse_graph_spec(BUDGET_SPEC)
    jobs.append(Job(f"budget:{BUDGET_SPEC}", CERTIFY,
                    lambda ctx: abs(_central(big, budget=BUDGET_LIMIT)),
                    f"budget:{BUDGET_SPEC}"))
    return Workload("coeff", jobs)


# ---------------------------------------------------------------------------
# certify_check: README and ROADMAP CLI rows, then check on every certificate
# ---------------------------------------------------------------------------

# (argv, result fields that hold the answer, writes a certificate).
# "{tmp}" is the run's scratch directory and "{seed}" the workload seed.
CLI_CASES = (
    ("gen cycle 5 --out {tmp}/c5.txt", ("n", "edges"), False),
    ("coeff cycle:3 --exponent 2,1,0 --method both", ("coefficient",), False),
    ("coeff cycle:3 --almost-central", ("count", "entries"), False),
    ("phi cycle:3 --trace 2", ("trace_value", "nonzero_entries"), False),
    ("at {tmp}/c5.txt --trace 4", ("at_bound_for_product", "trace_value"), True),
    ("at cyclepower:8:2 --trace 4", ("at_bound_for_product", "trace_value"), True),
    ("at complete:4 --prop6", ("at_bound_for_product", "cover_cycles"), True),
    ("at complete:5 --prop6", ("at_bound_for_product", "cover_cycles"), True),
    ("at product:cycle:3:cycle:3 --prop6", ("at_bound_for_product", "cover_cycles"), True),
    ("at complete:4 --fplan 0,1,2,3", ("f", "epsilon", "witness_exponent"), True),
    ("at complete:4 --fplan 1,0,2,3", ("f", "epsilon", "witness_exponent"), True),
    ("at petersen --fplan 0,1,1,1,3,1,2,2,2,2", ("f", "epsilon", "witness_exponent"), True),
    ("at cyclepower:7:2 --fplan 0,1,2,2,3,4,2", ("f", "epsilon", "witness_exponent"), True),
    ("at cycle:4 --exact", ("alon_tarsi_number", "witness_exponent"), True),
    ("at petersen --exact", ("alon_tarsi_number", "witness_exponent"), True),
    ("at petersen --orient", ("at_bound", "outdegrees"), True),
    ("at product:cycle:3:cycle:4 --orient", ("at_bound", "outdegrees"), True),
    ("orient --box 2,2", ("feasible", "outdegrees"), False),
    ("orient --box 3,3,3", ("feasible", "outdegrees"), False),
    ("orient --box 2,2,3", ("feasible",), False),
    ("orient --odd-product 2,2", ("at_bound", "odd_directed_cycle", "outdegrees_range"), True),
    ("orient --odd-product 3,3,3", ("at_bound", "odd_directed_cycle", "outdegrees_range"), True),
    ("orient --odd-product 2,3,6", ("at_bound", "odd_directed_cycle", "outdegrees_range"), True),
    # Infeasible windows: only the full vertex set violates condition 1,
    # so every one of the 2^n subsets is checked.
    ("orient product:cycle:3:cycle:4 --upper 1,2,2,2,2,2,2,2,2,2,2,2 --check-conditions",
     ("all_subsets_pass", "failing_subset", "subsets_checked"), False),
    ("orient product:cycle:4:cycle:4 --upper 1,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2 --check-conditions",
     ("all_subsets_pass", "failing_subset", "subsets_checked"), False),
    ("choosable cycle:4 --f 2 --exhaustive", ("f_choosable",), False),
    ("choosable cycle:3 --f 3 --stress 1000 --seed {seed}", ("trials", "failures"), False),
    ("choosable petersen --f 3 --stress 300 --seed {seed}", ("trials", "failures"), False),
    ("choosable product:cycle:4:cycle:4 --f 3 --stress 200 --seed {seed}", ("trials", "failures"), False),
    ("choosable product:cycle:4:cycle:4 --f 3 --certificate", ("witness_exponent",), True),
)
TINY_CLI = {0, 4, 6, 9, 13, 20, 23, 26}  # indexes into CLI_CASES


def _cli(argv: list[str]) -> tuple[int, dict]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    return rc, (json.loads(text)["result"] if text.strip() else {})


def _forged_certificates(c4c4_witness: list[int], c4c4_value: int) -> dict[str, dict]:
    """Certificates whose true verdict is "not verified".

    The two coefficient forgeries carry valid digests; the third keeps
    its old digest after an edit.  The C4 x C4 witness is the frozen
    output of the honest certificate, so no prover runs here.
    """
    k6 = graphs.build_complete(6)
    k6_cert = certificates.finalize_certificate({
        "kind": "coefficient",
        "graph": graphio.to_json_obj(k6),
        "graph_digest": graphio.graph_digest(k6),
        "witness_exponent": [3, 3, 3, 3, 3, 0],
        "witness_value": "1",
        "claim": "f-choosable",
        "f": [4] * 6,
        "at_bound": 4,
    })
    c4c4 = graphio.parse_graph_spec("product:cycle:4:cycle:4")
    raised = certificates.finalize_certificate({
        "kind": "coefficient",
        "graph": graphio.to_json_obj(c4c4),
        "graph_digest": graphio.graph_digest(c4c4),
        "witness_exponent": list(c4c4_witness),
        "witness_value": str(c4c4_value + 1),
        "claim": "f-choosable",
        "f": [3] * c4c4.n,
        "at_bound": max(c4c4_witness) + 1,
    })
    tampered = dict(raised, witness_value=str(c4c4_value))
    tampered["digest"] = raised["digest"][:-1] + ("0" if raised["digest"][-1] != "0" else "1")
    return {"forged_k6.json": k6_cert, "forged_c4c4.json": raised, "forged_digest.json": tampered}


def _build_certify_check(seed: int, expected: dict) -> Workload:
    jobs = []
    produced = []
    for i, (template, fields, writes) in enumerate(CLI_CASES):
        key = template.format(tmp="TMP", seed="SEED")
        out_name = f"cert{i}.json"

        def prove(ctx, template=template, fields=fields, writes=writes, out_name=out_name):
            argv = template.format(tmp=ctx["tmp"], seed=seed).split()
            if writes:
                argv += ["--out", os.path.join(ctx["tmp"], out_name)]
            rc, result = _cli(argv)
            return {"rc": rc, **{f: result.get(f) for f in fields}}

        jobs.append(Job(key, CERTIFY, prove, key, tiny=i in TINY_CLI))
        if writes:
            produced.append((out_name, key, i in TINY_CLI))

    def chain(ctx):
        cert = orientations.cycle_product_chain([1], [4])
        with open(os.path.join(ctx["tmp"], "chain.json"), "w") as fh:
            fh.write(graphio.canonical_json(cert) + "\n")
        return {f: cert[f] for f in ("at_upper", "at_lower", "steps")}

    jobs.append(Job("chain:C3xC4", CERTIFY, chain, "chain:C3xC4", tiny=True))
    produced.append(("chain.json", "chain:C3xC4", True))

    def check(ctx, name, extra=()):
        rc, _ = _cli(["check", os.path.join(ctx["tmp"], name), *extra])
        return rc == 0

    for name, key, tiny in produced:
        jobs.append(Job(f"check:{key}", CHECK, lambda ctx, name=name: check(ctx, name),
                        "accepted", tiny=tiny))
    honest = expected["coeff"]["choosable:C4xC4:f3"]
    files = _forged_certificates(honest["witness_exponent"], int(honest["witness_value"]))
    for name in files:
        extra = ("--budget", "5") if name == "forged_k6.json" else ()
        jobs.append(Job(f"check:{name}", CHECK,
                        lambda ctx, name=name, extra=extra: check(ctx, name, extra),
                        "rejected", forged=True, tiny=name == "forged_digest.json"))
    return Workload("certify_check", jobs, files)


def build(name: str, seed: int, expected: dict, *, tiny: bool = False) -> Workload:
    """The inputs and job list of one workload; the same seed gives the same inputs."""
    if name == "transfer":
        wl = _build_transfer()
    elif name == "coeff":
        wl = _build_coeff(seed)
    elif name == "certify_check":
        wl = _build_certify_check(seed, expected)
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    if tiny:
        wl.jobs = [j for j in wl.jobs if j.tiny]
    return wl

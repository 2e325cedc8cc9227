"""Output digests of the drivers, for comparing two trees of the package.

For each (family, seed, driver, L) it builds a hopset through
``run_experiment`` and prints one line: |H|, then SHA-256 prefixes of
the hopset's (u, v, weight bits) in (u, v) order, of the hopset file,
of ``r.json`` (the check's report with its per-level counters), of the
hopset read back from the file, of ``measure_hopbound`` over sampled
pairs and of the frame trace (``Instrumentation(record_frames=True)``).
The two benchmark workloads' drivers run on three inputs each as well.
Weighted lines scale the generated weights by 0.25, a power of two;
lines that start with "x0.3" scale them by 0.3, which is not one.
Lines that start with "root" build ``weighted`` with two repetitions,
with a rho_min whose ceil(rho_max) passes rho_max, and with c = 3,
where the root pass searches past the root frame: between them every
radius that a driver call's up-front root searches take the widest of.
Lines that start with "level" build ``weighted`` and ``phopset`` on
grid and path at k = 8, where max_level is 2 and most builds reach
it, and at an
interval width of 2.5, where a pivot has 2 or 3 candidate radii.
Lines that start with "full" build ``weighted`` and ``phopset`` on a
12-cycle with a chord, a parallel edge and a zero-weight edge (the graph
``CYCLE12`` of tests/test_hopset.py) at k = 2, interval width 2, c = 0
and L = 1, at seeds where a level-1 frame is the whole graph, so a
frame below the root runs its shortcutters in a root pass.
Lines that start with "cli" build through ``cli.main build`` from a
config file, with flags over it (``--repetitions``,
``--shortcut-levels``, ``--scale-range`` and others), and digest the
exit code, the hopset file, its sidecar and ``r.json``.

Run it from a checkout; it imports the package from that checkout's
``src``, or from ``--src DIR``:

    python tests/digest.py > digests.txt
    python tests/digest.py --parent HEAD~1

With ``--parent REV`` it extracts ``git archive REV`` into a temporary
directory, digests that tree's ``src`` and this checkout's with this
script, and exits 1 after naming each line that differs, 0 if none do.
Not collected by pytest.
"""
import argparse
import contextlib
import hashlib
import io
import os
import random
import struct
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the tree to import, read before the imports below need it
SRC = (sys.argv[sys.argv.index("--src") + 1] if "--src" in sys.argv[:-1]
       else os.path.join(ROOT, "src"))
sys.path.insert(0, SRC)

from dirhopset import cli
from dirhopset.experiment import (ExperimentConfig, read_hopset,
                                  run_experiment)
from dirhopset.generate import generate
from dirhopset.graph import Graph, save_graph
from dirhopset.hopset import Instrumentation, hopset_unweighted, \
    hopset_weighted
from dirhopset.parallel import phopset
from dirhopset.params import derive_params
from dirhopset.verify import measure_hopbound

FAMILIES = ("random-gnm", "grid", "layered-dag", "path")
SEEDS = (1, 2, 3)
DRIVERS = ("unweighted", "weighted", "parallel")
N = 48
CYCLE12 = [(i, (i + 1) % 12, 1.0) for i in range(12)] + [
    (0, 6, 1.0), (0, 6, 2.0), (3, 9, 0.0)]


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def edge_digest(h) -> str:
    """Hash of the (u, v, weight bits) triples in (u, v) order."""
    return sha(b"".join(struct.pack("<qqd", u, v, w)
                        for u, v, w in sorted(h)))


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def scaled(g: Graph, factor: float) -> Graph:
    """g with every weight times ``factor``."""
    u, v, w = g.edge_arrays()
    return Graph.from_arrays(g.n, u, v, w * factor)


def build(g: Graph, driver: str, params, seed: int, instr, **kw):
    if driver == "parallel":
        return phopset(g, params, kw.get("delta", 0.2), seed,
                       beta=kw.get("beta", 4.0), sweeps=kw.get("sweeps", 2),
                       scale_range=kw.get("scale_range"), instr=instr)
    run = hopset_weighted if driver == "weighted" else hopset_unweighted
    return run(g, params, seed, instr=instr)


def digest(tmp: str, g: Graph, driver: str, seed: int, epsilon: float,
           overrides: dict, **kw) -> str:
    """The digest line of one build of ``g``."""
    graph = os.path.join(tmp, "g.txt")
    out, report = os.path.join(tmp, "h.txt"), os.path.join(tmp, "r.json")
    save_graph(g, graph)
    cfg = ExperimentConfig(
        graph_path=graph, seed=seed, epsilon=epsilon, mode="practical",
        k=kw.get("k", 2), lam=1, overrides=overrides, algorithm=driver,
        delta=kw.get("delta", 0.2), beta=kw.get("beta", 4.0),
        sweeps=kw.get("sweeps", 2), scale_range=kw.get("scale_range"),
        verify="sampled:8", ratio_bound=kw.get("ratio_bound", 4.0),
        out=out, report_path=report)
    run_experiment(cfg)
    params = derive_params(g.n, epsilon, kw.get("k", 2), 1, "practical",
                           **overrides)
    instr = Instrumentation(record_frames=True)
    h = build(g, driver, params, seed, instr, **kw)
    rng = random.Random(seed)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(20)]
    try:
        beta = measure_hopbound(g, h, epsilon, pairs)
    except ValueError as exc:
        beta = f"ValueError: {exc}"
    return " ".join([
        str(len(h)), edge_digest(h), sha(read(out)), sha(read(report)),
        edge_digest(read_hopset(out)), sha(repr(beta)),
        sha(repr(instr.frames) + repr(instr.per_level))])


def cli_digest(tmp: str, g: Graph, driver: str, config: str,
               flags: list) -> str:
    """The exit code and the digests of the hopset file, its sidecar and
    ``r.json`` of ``dirhopset build --config`` with ``config`` (the
    file's text, JSON or key=value lines) and ``flags``."""
    graph, cfg = os.path.join(tmp, "g.txt"), os.path.join(tmp, "cfg")
    out, report = os.path.join(tmp, "h.txt"), os.path.join(tmp, "r.json")
    save_graph(g, graph)
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(config.replace("GRAPH", graph))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["build", "--config", cfg, "--algorithm", driver,
                         "--out", out, "--report", report] + flags)
    return " ".join([str(code), sha(read(out)), sha(read(out + ".json")),
                     sha(read(report))])


def digests() -> None:
    """Print the digest line of every case."""
    with tempfile.TemporaryDirectory() as tmp:
        for family in FAMILIES:
            for seed in SEEDS:
                for driver in DRIVERS:
                    g = generate(family, N, 2 * N if family in (
                        "random-gnm", "layered-dag") else None,
                        1 if driver == "unweighted" else 8, seed)
                    if driver != "unweighted":  # weights below 1
                        g = scaled(g, 0.25)
                    for L in (1, 2):
                        line = digest(tmp, g, driver, seed,
                                      0.5 if driver == "parallel" else 0.0,
                                      {"L": L})
                        print(family, seed, driver, L, line, flush=True)
        configs = [  # settings from a config file, flags over them
            ('{"graph_path": "GRAPH", "mode": "practical", "lam": 1, '
             '"epsilon": 0.5, "verify": "sampled:8", "ratio_bound": 4.0, '
             '"delta": 0.2, "beta": 4.0, "sweeps": 2, '
             '"overrides": {"L": 2, "c": 0.5, "interval_count": 3}}',
             ["--repetitions", "2", "--shortcut-levels", "1",
              "--scale-range", "0:5"]),
            ("graph_path = GRAPH\nmode = practical\nlam = 1\n"
             "epsilon = 0.5\nratio_bound = 4.0\nscale_range = [1, 4]\n"
             "beta = 4.0\nsweeps = 1\n",
             ["--shortcut-levels", "0", "--seed", "2"]),
            ('{"graph_path": "GRAPH", "lam": 1, "epsilon": 0.5, '
             '"ratio_bound": 4.0, "beta": 4.0, "sweeps": 2}',
             ["--repetitions", "3", "--scale-range", "2:3", "--delta",
              "0.25", "--verify", "sampled:4"])]
        for family in ("grid", "layered-dag"):
            for driver in DRIVERS:
                g = generate(family, N, 2 * N if family == "layered-dag"
                             else None, 1 if driver == "unweighted" else 8, 1)
                for i, (config, flags) in enumerate(configs):
                    print("cli", family, driver, i, cli_digest(
                        tmp, g, driver, config, flags), flush=True)
        for seed in SEEDS:  # the benchmark's workloads, n as run there
            g = generate("random-gnm", 192, 3 * 192, 8, 11000 + seed)
            print("exact-gnm", seed, digest(tmp, g, "weighted", seed, 0.0,
                                            {}), flush=True)
            g = generate("layered-dag", 288, 2 * 288, 4, 11000 + seed)
            print("phopset-layered", seed, digest(
                tmp, g, "parallel", seed, 0.5, {"L": 1}, delta=0.05,
                beta=16.0, sweeps=5, scale_range=(5, 6), ratio_bound=2.0),
                flush=True)
        for family in ("grid", "path"):  # each kind of root search
            for seed in SEEDS:
                g = scaled(generate(family, N, None, 8, seed), 0.25)
                for overrides in ({"repetitions": 2}, {"rho_min": 3.5},
                                  {"c": 3}):
                    print("root", family, seed, "weighted", *(
                        f"{k}={v}" for k, v in overrides.items()), digest(
                        tmp, g, "weighted", seed, 0.0, overrides),
                        flush=True)
        for family in ("grid", "path"):  # each kind of level partition
            for seed in SEEDS:
                g = scaled(generate(family, N, None, 8, seed), 0.25)
                for driver in ("weighted", "parallel"):
                    for name, overrides, kw in (
                            ("k=8", {"L": 1}, {"k": 8}),
                            ("interval_width=2.5",
                             {"interval_width": 2.5}, {})):
                        print("level", family, seed, driver, name, digest(
                            tmp, g, driver, seed,
                            0.5 if driver == "parallel" else 0.0,
                            overrides, **kw), flush=True)
        for driver, seed in (("weighted", 7423), ("parallel", 6690)):
            print("full", driver, seed, digest(  # a full level-1 frame
                tmp, Graph(12, CYCLE12), driver, seed, 0.5,
                {"c": 0, "L": 1, "interval_width": 2}), flush=True)
        for family in ("grid", "random-gnm"):  # a weight unit of 2^-2
            for seed in SEEDS:
                for driver in ("weighted", "parallel"):
                    g = scaled(generate(family, N, 2 * N if family ==
                                        "random-gnm" else None, 8, seed), 0.3)
                    print("x0.3", family, seed, driver, 1, digest(
                        tmp, g, driver, seed,
                        0.5 if driver == "parallel" else 0.0, {"L": 1}),
                        flush=True)


def compare(rev: str) -> int:
    """Digest the tree of ``rev`` and this checkout's, both at once; 1
    and each differing line on stdout if they differ, else 0."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        procs = [subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--src", src],
            stdout=subprocess.PIPE, text=True)
            for src in (os.path.join(tmp, "src"), os.path.join(ROOT, "src"))]
        outs = [p.communicate()[0].splitlines() for p in procs]
    if any(p.returncode for p in procs):
        sys.exit("digest run failed")
    differ = [(a, b) for a, b in zip(*outs) if a != b]
    for a, b in differ:
        print(f"{rev}:   {a}\nchange: {b}")
    if len(outs[0]) != len(outs[1]):
        print(f"{len(outs[0])} lines at {rev}, {len(outs[1])} in the change")
    print(f"{len(outs[1])} lines, {len(differ)} differ", file=sys.stderr)
    return int(bool(differ) or len(outs[0]) != len(outs[1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", metavar="REV",
                    help="compare this checkout's digests with REV's")
    ap.add_argument("--src", default=SRC,
                    help="the package tree to digest (default: this "
                         "checkout's src)")
    args = ap.parse_args()
    if args.parent:
        return compare(args.parent)
    digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())

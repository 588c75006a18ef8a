"""One operation per workload, as the worker process runs it.

`run(item)` is the timed call into the program; `digest(item, result)`
reduces its output to what the checks need and runs after the clock
stops.  Only the cli workload's operation leaves the process: it runs
`python -m hulthen.cli` as a child, one at a time.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

# reports keeps every SAMPLE_STRIDE-th wavefunction sample for the value check
SAMPLE_STRIDE = 64


def child_env(root: str) -> dict:
    """Environment for program children: the checkout's src on the path and
    no HULTHEN_* overrides leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def sign_changes(values, rel_floor: float = 1e-9) -> int:
    import numpy as np

    v = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return 0
    s = np.sign(v[np.abs(v) > rel_floor * peak])
    return int(np.count_nonzero(s[1:] != s[:-1]))


class Spectra:
    def __init__(self):
        from hulthen import model, oracle

        self.model, self.oracle = model, oracle

    def run(self, item):
        params = self.model.PotentialParams(Z=1.0, alpha=item["alpha"], D=item["D"])
        qn = self.model.QuantumNumbers(n=item["n"], l=item["l"])
        cfg = self.oracle.default_config(params, qn)
        return cfg, self.oracle.solve_exact(params, item["l"], item["k"], cfg)

    def digest(self, item, result):
        cfg, res = result
        return {"E": res.energy, "nodes": res.node_count, "residual": res.residual,
                "converged": res.converged, "bracket": list(cfg.energy_bracket)}


class Census:
    def __init__(self):
        from hulthen import model, oracle

        self.model, self.oracle = model, oracle

    def run(self, item):
        params = self.model.PotentialParams(Z=1.0, alpha=item["alpha"], D=item["D"])
        return self.oracle.count_bound_states(params, item["l"])

    def digest(self, item, result):
        return {"count": result}


class Reports:
    def __init__(self):
        from hulthen import expectation, model

        self.model, self.expectation = model, expectation

    def run(self, item):
        m = self.model
        params = m.PotentialParams(Z=item["Z"], alpha=item["alpha"], mu=item["mu"],
                                   hbar=item["hbar"], D=item["D"])
        qn = m.QuantumNumbers(n=item["n"], l=item["l"])
        c_n = m.normalization_constant(params, qn)
        samples = m.wavefunction_samples(params, qn)
        return c_n, samples, self.expectation.expectation_report(params, qn)

    def digest(self, item, result):
        c_n, samples, rep = result
        u = samples.U_values
        return {
            "C": c_n,
            "meta": {k: samples.meta[k] for k in ("epsilon", "norm_const", "points",
                                                   "r_min", "r_max")},
            "r_sub": samples.r_values[::SAMPLE_STRIDE].tolist(),
            "U_sub": u[::SAMPLE_STRIDE].tolist(),
            "R_sub": samples.R_values[::SAMPLE_STRIDE].tolist(),
            "size": int(u.size),
            "sign_changes": sign_changes(u),
            "report": {k: getattr(rep, k) for k in (
                "inv_r2_hft", "v_hft", "t_value", "inv_r2_quad_approx",
                "inv_r2_quad_exact", "v_quad")},
        }


class Cli:
    """One `python -m hulthen.cli` child per operation."""

    def __init__(self, root: str, workdir: str):
        self.env = child_env(root)
        self.root = root
        self.workdir = workdir

    def argv(self, item):
        argv = list(item["argv"])
        if item["out"]:
            argv += ["--out", os.path.join(self.workdir, item["out"])]
        return argv

    def run(self, item):
        return subprocess.run(
            [sys.executable, "-m", "hulthen.cli", *self.argv(item)],
            cwd=self.root, env=self.env, capture_output=True, check=False,
        )

    def output(self, item, proc) -> bytes:
        """What the invocation wrote: stdout, or the --out file (removed)."""
        if not item["out"]:
            return proc.stdout
        path = os.path.join(self.workdir, item["out"])
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return b""
        os.remove(path)
        return data

    def digest(self, item, proc):
        return {"rc": proc.returncode,
                "sha256": hashlib.sha256(self.output(item, proc)).hexdigest(),
                "stderr": proc.stderr.decode("utf-8", "replace")[-300:]}


class CliInProcess(Cli):
    """The same invocation through `hulthen.cli.main` in this process,
    with stdout captured (the caller puts the checkout's src on sys.path
    and removes HULTHEN_* from os.environ)."""

    def run(self, item):
        import hulthen.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = hulthen.cli.main(self.argv(item))
        return subprocess.CompletedProcess(item["argv"], rc, out.getvalue().encode(),
                                           err.getvalue().encode())


def make(workload: str, root: str, workdir: str, in_process: bool = False):
    if workload == "cli":
        return CliInProcess(root, workdir) if in_process else Cli(root, workdir)
    return {"spectra": Spectra, "census": Census, "reports": Reports}[workload]()

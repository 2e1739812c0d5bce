"""Boot and stop the daemons each workload runs against.

Two shapes, both separate processes on loopback:

* ``GridTopology`` — three ``grid-node`` daemons booted by
  :class:`repro.grid.harness.GridHarness`, wired directly (no proxies).
* ``ShardTopology`` — one ``grid-node`` origin ``s0`` (in-process serve
  plane) peered with one sharded site ``r0`` (``AequusDaemon(workers=1)``,
  booted by ``perfbench/shard_node.py``).

``boot()`` returns the set-up time: from spawning the daemons until every
one answers on its serve port and every site holds a horizon, no older
than ``CONVERGED_STALENESS_S``, for every other origin.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.grid.harness import GridHarness, GridSpec, _free_ports
from repro.serve.daemon import build_grid_policy

from loadgen import json_call
from workloads import (EXCHANGE_S, GRID_SITES, HISTOGRAM_S, REFRESH_S,
                       TICK_S, USERS)

#: a site counts as converged once every remote horizon is this fresh
CONVERGED_STALENESS_S = 5.0
BOOT_TIMEOUT_S = 120.0

SRC = Path(__file__).resolve().parents[1] / "src"
SHARD_NODE = Path(__file__).resolve().parent / "shard_node.py"


class Topology:
    """Common surface: ``sites`` (name -> (host, port)) and ``pids()``."""

    host = "127.0.0.1"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.sites: Dict[str, Tuple[str, int]] = {}

    def pids(self) -> List[int]:
        raise NotImplementedError

    def boot(self) -> float:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def info(self, site: str) -> dict:
        host, port = self.sites[site]
        return json_call(host, port, "INFO")["info"]

    def converged(self) -> bool:
        for site in self.sites:
            try:
                horizons = self.info(site).get("usage_horizons") or {}
            except (ConnectionError, OSError, KeyError):
                return False
            remote = {o: h["staleness"] for o, h in horizons.items()
                      if o != site}
            if len(remote) < len(self.sites) - 1 or any(
                    lag > CONVERGED_STALENESS_S for lag in remote.values()):
                return False
        return True

    def wait_converged(self, deadline: float) -> None:
        while not self.converged():
            if time.monotonic() > deadline:
                raise TimeoutError("daemons did not converge")
            time.sleep(0.05)


class GridTopology(Topology):
    """Three grid-node daemons through GridHarness."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.spec = GridSpec(sites=GRID_SITES, users=USERS, seed=seed,
                             exchange_interval=EXCHANGE_S,
                             histogram_interval=HISTOGRAM_S,
                             refresh_interval=REFRESH_S,
                             tick_interval=TICK_S, proxies=False,
                             boot_timeout=BOOT_TIMEOUT_S)
        self.harness = GridHarness(self.spec, workdir=str(workdir))

    def pids(self) -> List[int]:
        return [proc.pid for proc in self.harness.procs.values()]

    def boot(self) -> float:
        t0 = time.monotonic()
        self.harness.start()
        # the harness pinged each node through a client that owns a loop
        # thread and a connection; the generator keeps neither
        for name in self.harness.procs:
            self.harness.client(name).close()
        self.sites = {name: (self.spec.host, port)
                      for name, port in self.harness.serve_ports.items()}
        self.wait_converged(t0 + BOOT_TIMEOUT_S)
        return time.monotonic() - t0

    def stop(self) -> None:
        self.harness.stop()


#: s0's exchange interval in the shard topology.  r0 refreshes every
#: REFRESH_S (0.5 s); publishing every 0.4 s instead makes s0's deltas sweep every
#: phase of r0's refresh once per 2 s, so one short window samples the
#: whole range instead of the one phase a boot happens to get.
SHARD_ORIGIN_EXCHANGE_S = 0.4


class ShardTopology(Topology):
    """Grid-node origin ``s0`` peered with sharded site ``r0``."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.procs: Dict[str, subprocess.Popen] = {}
        self._logs: List = []

    def pids(self) -> List[int]:
        return [proc.pid for proc in self.procs.values()]

    def _spawn(self, name: str, cmd: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        log = open(self.workdir / f"{name}.log", "ab")
        self._logs.append(log)
        self.procs[name] = subprocess.Popen(cmd, env=env, stdout=log,
                                            stderr=subprocess.STDOUT)

    def boot(self) -> float:
        self.workdir.mkdir(parents=True, exist_ok=True)
        policy_path = self.workdir / "policy.conf"
        t0 = time.monotonic()
        # the policy is an input of the run, written like GridHarness does
        policy_path.write_text(build_grid_policy(
            USERS, seed=self.seed).dumps(), encoding="utf-8")
        uss_s0, uss_r0, srv_s0, srv_r0 = _free_ports(4, self.host)
        epoch = time.time()
        self._spawn("s0", [
            sys.executable, "-m", "repro.cli", "grid-node", "--site", "s0",
            "--policy", str(policy_path), "--listen-host", self.host,
            "--listen-port", str(uss_s0), "--host", self.host,
            "--port", str(srv_s0), "--site-index", "0", "--site-count", "1",
            "--usage-jobs", "5", "--seed", str(self.seed),
            "--exchange-interval", str(SHARD_ORIGIN_EXCHANGE_S),
            "--histogram-interval", str(HISTOGRAM_S),
            "--refresh-interval", str(REFRESH_S),
            "--tick-interval", str(TICK_S), "--virtual-epoch", repr(epoch),
            "--peer", f"r0={self.host}:{uss_r0}"])
        self._spawn("r0", [
            sys.executable, str(SHARD_NODE), "--site", "r0",
            "--policy", str(policy_path), "--host", self.host,
            "--listen-port", str(uss_r0), "--port", str(srv_r0),
            "--peer", f"s0={self.host}:{uss_s0}",
            "--virtual-epoch", repr(epoch)])
        self.sites = {"s0": (self.host, srv_s0), "r0": (self.host, srv_r0)}
        deadline = t0 + BOOT_TIMEOUT_S
        for name in self.sites:
            self._wait_serving(name, deadline)
        self.wait_converged(deadline)
        return time.monotonic() - t0

    def _wait_serving(self, name: str, deadline: float) -> None:
        host, port = self.sites[name]
        while True:
            if self.procs[name].poll() is not None:
                raise RuntimeError(f"{name} exited during boot (log: "
                                   f"{self.workdir / (name + '.log')})")
            try:
                if json_call(host, port, "PING").get("ok"):
                    return
            except (ConnectionError, OSError):
                pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"{name} not serving")
            time.sleep(0.05)

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(10.0)
        self.procs.clear()
        for log in self._logs:
            log.close()
        self._logs.clear()


def make_topology(kind: str, seed: int, workdir: Path) -> Topology:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if kind == "grid":
        return GridTopology(seed, workdir)
    return ShardTopology(seed, workdir)

"""A grid site served by the sharded plane: ``AequusDaemon(workers=N)``.

``aequus-repro grid-node`` always serves in-process (``workers=0``), so
the serve-read workload boots its sharded site with this script instead.
It assembles the same stack a grid node does — engine, registry, TCP USS
transport, :class:`~repro.services.site.AequusSite` — and puts a forked
worker pool over shared memory in front of it.  The pool forks before the
transport's loop thread starts, so no worker inherits a running thread.

Run: ``python perfbench/shard_node.py --policy P --site r0 --listen-port X
--port Y --peer s0=127.0.0.1:Z --virtual-epoch E`` (``PYTHONPATH`` must
hold the repository's ``src``); it serves until SIGTERM.  The service
intervals are the benchmark's, from ``workloads.py``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from workloads import EXCHANGE_S, HISTOGRAM_S, REFRESH_S, TICK_S

#: forked serve workers in front of the site
WORKERS = 1


def main(argv=None) -> int:
    from repro.core.policy import parse_policy
    from repro.grid.node import parse_peer
    from repro.grid.transport import TcpUssTransport
    from repro.obs.registry import MetricsRegistry
    from repro.serve.daemon import AequusDaemon
    from repro.services.site import AequusSite, SiteConfig
    from repro.sim.engine import SimulationEngine

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--policy", required=True)
    ap.add_argument("--site", required=True)
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--listen-port", type=int, required=True)
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--peer", action="append", default=[])
    ap.add_argument("--virtual-epoch", type=float, required=True)
    args = ap.parse_args(argv)

    with open(args.policy, "r", encoding="utf-8") as fh:
        policy = parse_policy(fh.read())
    engine = SimulationEngine(
        start_time=max(0.0, time.time() - args.virtual_epoch))
    registry = MetricsRegistry(constant_labels={"site": args.site},
                               clock=lambda: engine.now)
    transport = TcpUssTransport(args.site, host=args.host,
                                port=args.listen_port, registry=registry)
    peers = [parse_peer(spec) for spec in args.peer]
    for peer, host, port in peers:
        transport.add_peer(f"uss:{peer}", host, port)
    config = SiteConfig(histogram_interval=HISTOGRAM_S,
                        uss_exchange_interval=EXCHANGE_S,
                        ums_refresh_interval=REFRESH_S,
                        fcs_refresh_interval=REFRESH_S)
    site = AequusSite(args.site, engine, transport, policy=policy,
                      config=config, registry=registry)
    for peer, _host, _port in peers:
        site.uss.add_peer(peer)
    daemon = AequusDaemon(engine, site, host=args.host, port=args.port,
                          tick_interval=TICK_S, workers=WORKERS,
                          virtual_epoch=args.virtual_epoch)

    def _terminate(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        daemon.start()
        transport.start()
        print(f"shard-node: site {args.site!r} serving on "
              f"{args.host}:{daemon.port} with {WORKERS} workers",
              flush=True)
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
        transport.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

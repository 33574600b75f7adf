"""The full-scan reference cycle loop the kernel differentials compare to.

:meth:`Network.step` walks only the routers and sources in its active
sets and routes by precomputed tables; it must equal, bit for bit, a
loop that walks every router and every source each cycle and computes
every route dynamically.  :func:`full_scan_step` is that loop, built
from ``step()`` itself: it clears the routers' route and VA tables and
puts every router and source into the active sets, steps, and puts the
tables back.  :func:`full_scan` makes a network step that way from then
on (its ``step``, ``drain`` and every runner that calls them); the
setting is part of the network and survives a snapshot round trip.
"""

import functools

from repro.noc.network import Network


def full_scan_step(net, span=None):
    """One cycle of ``net`` as the full-scan reference."""
    assert span is None, "the full-scan reference steps one cycle at a time"
    routers = net.routers
    for router in routers:
        router.set_routing_tables(None, None)
    net._active_routers.update(range(len(routers)))
    net._active_sources.update(range(net.topology.num_nodes))
    try:
        Network.step(net)
    finally:
        net._set_router_tables()


def full_scan(net):
    """Make ``net`` step as the full-scan reference; returns it."""
    net.use_kernel("event")
    net.step = functools.partial(full_scan_step, net)
    return net

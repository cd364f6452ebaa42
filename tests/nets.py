"""Whole characteristic nets for the tests.

``moc.advance_net`` keeps only the initial level and the last two; a test
that reads every level collects the net here, from copies of each level
taken through ``on_level`` as the level is made.
"""

from vortigen import moc

LEVEL_ARRAYS = ("x", "t", "u", "a", "s", "labels", "c0_parent")


def collect_net(*args, **kwargs) -> moc.CharNet:
    """``moc.advance_net(*args, **kwargs)`` with every level kept: its
    levels, copied as they are made, and its envelope."""
    whole = moc.CharNet(gamma=0.0)

    def on_level(net, k):
        whole.gamma = net.gamma
        for q in LEVEL_ARRAYS:
            getattr(whole, q).append(getattr(net, q)[k].copy())
    whole.envelope = moc.advance_net(*args, on_level=on_level,
                                     **kwargs).envelope
    return whole


def fold_residual(net: moc.CharNet) -> dict:
    """``moc.ResidualFold``'s residuals of a whole net, fed its levels in
    order, as ``advance_net`` hands them on."""
    fold = moc.ResidualFold()
    for k in range(net.n_levels):
        fold(net, k)
    return fold.result()

"""Hand-built models shared by a few test modules."""

import dataclasses
import re

from stratinv.scm import DiscreteScm, FiniteDomain


def tiny_confounded():
    """One hidden bit that drives both the context and the label.

    The input reveals the context and the bit, so a ctx reader and a
    bit reader bracket the invariance spectrum.
    """
    return DiscreteScm(
        u_domains=(FiniteDomain("u1", (0, 1)),),
        z_domain=FiniteDomain("z", ("za", "zb")),
        p_u={(0,): 0.5, (1,): 0.5},
        z_parents=("u1",),
        p_z_given_parents={
            (0,): {"za": 0.8, "zb": 0.2},
            (1,): {"za": 0.3, "zb": 0.7},
        },
        x_fn=lambda z, u: f"ctx={z} u1={u[0]}",
        y_fn=lambda z, u: u[0],
        s_fn=lambda z, u, y: "all",
        y_values=(0, 1),
        s_values=("all",),
    )


def blind(scm):
    """The same model with the context token dropped from every input."""
    x_fn = scm.x_fn
    return dataclasses.replace(
        scm, x_fn=lambda z, u: re.sub(r"ctx=\S+ ?", "", x_fn(z, u))
    )

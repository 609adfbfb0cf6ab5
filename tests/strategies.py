"""Hypothesis strategies shared by the test modules."""
import numpy as np
from hypothesis import strategies as st

from robpareto.core import (
    AffineFamilyObjectives,
    ExplicitCandidates,
    Instance,
    LinearScenarioObjectives,
    ScenarioSet,
    SimplexCandidates,
    TableObjectives,
)

ENTRY = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw):
    """One instance of each objective form; linear-in-s coords up to dimension 8."""
    form = draw(st.sampled_from(["table", "affine_family", "linear_in_s"]))
    n = draw(st.integers(1, 4))
    sids = tuple(f"s{k}" for k in range(draw(st.integers(1, 5))))

    def matrix(rows, cols):
        return np.array(draw(st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)

    if form == "affine_family":
        dim = draw(st.integers(2, 4))
        return Instance(
            n=n,
            scenarios=ScenarioSet(ids=sids),
            objectives=AffineFamilyObjectives({sid: matrix(n, dim) for sid in sids}),
            candidates=SimplexCandidates(dim=dim, step=draw(st.sampled_from([0.5, 0.25, 0.2]))),
        )
    cids = tuple(f"c{k}" for k in range(draw(st.integers(1, 6))))
    if form == "table":
        scenarios = ScenarioSet(ids=sids)
        objectives = TableObjectives({c: {sid: matrix(1, n)[0] for sid in sids} for c in cids})
    else:
        d = draw(st.integers(1, 8))
        scenarios = ScenarioSet(ids=sids, coords={sid: matrix(1, d)[0] for sid in sids})
        objectives = LinearScenarioObjectives({c: matrix(n, d) for c in cids})
    return Instance(n=n, scenarios=scenarios, objectives=objectives, candidates=ExplicitCandidates(cids))

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.PCG64(20240811))


def groupoid_functor_law_violations(functor):
    """Oracle for the laws ``induced_functor`` proves instead of checking:
    each arrow keeps its endpoints, each identity goes to the identity at
    its object's image, and each entry of ``source.compose`` is preserved.
    Lists every violation, so an empty list means a functor."""
    source, target = functor.source, functor.target
    omap, amap = functor.object_map, functor.arrow_map
    bad = [("endpoints", f) for f, (s, t) in source.arrows.items()
           if target.arrows.get(amap.get(f)) != (omap.get(s), omap.get(t))]
    bad += [("identity", x) for x, e in source.identities.items()
            if amap.get(e) != target.identities.get(omap.get(x))]
    bad += [("compose", g, f) for (g, f), h in source.compose.items()
            if target.compose.get((amap.get(g), amap.get(f))) != amap.get(h)]
    return bad


@pytest.fixture
def functor_law_violations():
    return groupoid_functor_law_violations

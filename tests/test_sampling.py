import numpy as np
import pytest

from hodgecheck.curvature import METRICS
from hodgecheck.errors import BadDimension
from hodgecheck.sampling import derive_rng, random_siegel_point, random_subspace, random_unit_vector


def metric_for(g):
    return METRICS["hodge"](random_siegel_point(g, derive_rng(50, "sphere-metric", g)).y)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_batch_draw_matches_single_draws(g):
    metric = metric_for(g)
    batch_rng, single_rng = derive_rng(51, "sphere", g), derive_rng(51, "sphere", g)
    batch = random_unit_vector(metric, batch_rng, 300)
    single = np.array([random_unit_vector(metric, single_rng, 1)[0] for _ in range(300)])
    assert batch.shape == (300, g)
    # one batch consumes the stream exactly as n draws of one vector do
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state
    assert np.max(np.abs(batch - single)) < 1e-14 * np.max(np.abs(single))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_draws_lie_on_the_metric_sphere(g):
    metric = metric_for(g)
    v = random_unit_vector(metric, derive_rng(52, "sphere", g), 500)
    norms = np.einsum("ni,ij,nj->n", v.conj(), metric, v)
    assert np.max(np.abs(norms - 1)) < 1e-12


def test_random_subspace_refuses_more_rows_than_the_ambient_dimension():
    # it used to return a smaller subspace than the one asked for
    rng = derive_rng(53, "subspace")
    assert random_subspace(3, 3, rng, "V").dim == 3
    assert random_subspace(3, 0, rng, "V").dim == 0
    with pytest.raises(BadDimension):
        random_subspace(3, 4, rng, "V")

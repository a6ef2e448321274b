import pytest

from torusred.fourier import TorusGrid


@pytest.fixture
def sampled_shapes(monkeypatch):
    """The shape of the grid of every ``TorusGrid.sample`` call, in call order."""
    shapes = []
    sample = TorusGrid.sample

    def spy(grid, fmap):
        shapes.append(grid.shape)
        return sample(grid, fmap)

    monkeypatch.setattr(TorusGrid, "sample", spy)
    return shapes

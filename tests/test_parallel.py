import pytest

from tamedspde import convergence
from tamedspde.coefficients import allen_cahn
from tamedspde.grid import Grid1D
from tamedspde.noise import QWienerSpec
from tamedspde.parallel import MAX_SLICE_VALUES, PATH_CHUNK, path_slices, worker_count
from tamedspde.schemes import SchemeConfig


@pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5"])
def test_worker_count_rejects_non_positive_and_non_integer(monkeypatch, raw):
    monkeypatch.setenv("TAMEDSPDE_WORKERS", raw)
    with pytest.raises(ValueError, match="TAMEDSPDE_WORKERS must be an integer >= 1"):
        worker_count()


@pytest.mark.parametrize("raw, n", [("1", 1), ("3", 3)])
def test_worker_count_accepts_positive_integers(monkeypatch, raw, n):
    monkeypatch.setenv("TAMEDSPDE_WORKERS", raw)
    assert worker_count() == n


def test_worker_count_defaults_to_one(monkeypatch):
    monkeypatch.delenv("TAMEDSPDE_WORKERS", raising=False)
    assert worker_count() == 1


def chunks(n_paths):
    """range(n_paths) in slices of one PATH_CHUNK each."""
    return [range(a, min(a + PATH_CHUNK, n_paths)) for a in range(0, n_paths, PATH_CHUNK)]


@pytest.mark.parametrize("n_paths", [1, 25, 60, 100])
def test_small_meshes_take_every_path_in_one_slice(n_paths):
    for n_cells in (32, 64, 256):
        assert path_slices(n_paths, n_cells - 1) == [range(n_paths)]
    assert path_slices(40 * n_paths, 31) == [range(40 * n_paths)]  # up to 4000 paths


def test_up_to_the_cap_goes_in_one_slice():
    row_values = MAX_SLICE_VALUES // 100  # 100 paths (4 chunks) fill 2^17 values
    assert path_slices(100, row_values) == [range(100)]
    assert path_slices(101, row_values) == [range(100), range(100, 101)]


def test_wide_mesh_slices_are_capped_and_chunk_aligned():
    assert path_slices(300, 1023) == [range(125), range(125, 250), range(250, 300)]  # 1024 cells
    n_nodes = 4095  # 4096 cells: a slice is one chunk
    assert path_slices(1010, n_nodes) == chunks(1010)
    for paths in path_slices(1010, n_nodes):
        assert paths.start % PATH_CHUNK == 0
        assert len(paths) * n_nodes <= MAX_SLICE_VALUES
    assert path_slices(1010, n_nodes)[-1] == range(1000, 1010)
    # a row wider than the cap keeps whole chunks
    assert path_slices(60, MAX_SLICE_VALUES) == chunks(60)
    assert path_slices(0, n_nodes) == []


@pytest.mark.parametrize("n_cells, coarse_taus, per_path, slice_paths", [
    (32, [2.0**-5, 2.0**-4], 837, 150),  # six chunks within 2^17 values
    (256, [2.0**-5, 2.0**-4], 6885, 25),  # past a 25-path share of 2^17: chunks
])
def test_ladder_slices_by_its_block_values_per_path(n_cells, coarse_taus, per_path,
                                                    slice_paths):
    ref = SchemeConfig(tau=2.0**-7, grid=Grid1D(n_cells), horizon=1.0, scheme="drift_gtem",
                       coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, n_cells - 1),
                       seed=41)
    _, members = convergence._ladder_members(ref, coarse_taus, None)
    assert convergence._check_block_memory(ref, members, PATH_CHUNK) == per_path
    assert path_slices(160, per_path) == [range(a, min(a + slice_paths, 160))
                                          for a in range(0, 160, slice_paths)]

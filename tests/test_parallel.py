import pytest

from tamedspde.parallel import (
    MAX_SLICE_VALUES,
    PATH_CHUNK,
    path_chunks,
    path_slices,
    worker_count,
)


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


@pytest.mark.parametrize("n_paths", [1, 25, 60, 100])
def test_small_meshes_take_every_path_in_one_slice(n_paths):
    for n_cells in (32, 64, 256):
        assert path_slices(n_paths, n_cells - 1) == [(0, n_paths)]
    assert path_slices(40 * n_paths, 31) == [(0, 40 * n_paths)]  # up to 4000 paths


def test_wide_mesh_slices_are_capped_and_chunk_aligned():
    assert path_slices(300, 1023) == [(0, 125), (125, 250), (250, 300)]  # 1024 cells
    n_nodes = 4095  # 4096 cells: a slice is one chunk
    assert path_slices(1000, n_nodes) == path_chunks(1000)
    for start, stop in path_slices(1010, n_nodes):
        assert start % PATH_CHUNK == 0
        assert (stop - start) * n_nodes <= MAX_SLICE_VALUES
    assert path_slices(1010, n_nodes)[-1] == (1000, 1010)
    # a mesh so wide that one chunk holds more than the cap keeps whole chunks
    assert path_slices(60, MAX_SLICE_VALUES) == [(0, 25), (25, 50), (50, 60)]
    assert path_slices(0, n_nodes) == []

import pytest

from tamedspde.parallel import worker_count


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

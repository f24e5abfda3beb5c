import msolab


def test_all_names_resolve():
    assert [name for name in msolab.__all__ if not hasattr(msolab, name)] == []

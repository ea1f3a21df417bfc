import randsteward


def test_every_export_resolves():
    missing = [name for name in randsteward.__all__ if not hasattr(randsteward, name)]
    assert missing == []
    assert len(set(randsteward.__all__)) == len(randsteward.__all__)

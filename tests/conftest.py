"""Shared fixtures."""

import pytest

from trigratio import derivatives


@pytest.fixture
def mutate_general_form(monkeypatch):
    """Replace `derivatives.exact_sin_comb_form` for one test by one whose
    general form, for the given families, has its +-23 bracket weight (the
    last) moved away from 0 by w3_delta and its first weight scaled by scale;
    the sum forms stay intact.  The caches built from the table,
    `sin_comb_form`, `termwise_sign` and D's series `_table_d_series`, are
    emptied on both sides, so no entry built from the mutation outlives the
    test."""
    table = derivatives.exact_sin_comb_form

    def mutate(families, w3_delta=0, scale=1):
        def mutated(family, p, general):
            terms, factor = table(family, p, general)
            if not general or family not in families:
                return terms, factor
            (w0, c0), (w3, c3) = terms[0], terms[3]
            w3 += w3_delta if w3 > 0 else -w3_delta
            return ((w0 * scale, c0), *terms[1:3], (w3, c3)), factor

        _clear()
        monkeypatch.setattr(derivatives, "exact_sin_comb_form", mutated)

    yield mutate
    _clear()


def _clear():
    derivatives.sin_comb_form.cache_clear()
    derivatives.termwise_sign.cache_clear()
    derivatives._table_d_series.cache_clear()

"""Tests for the torus demo and the two-sidedness character test."""

import random

import pytest

from simpleloop import demos
from simpleloop.cover import ResourceLimitError
from simpleloop.demos import (
    OrientationCharacter,
    TorusClass,
    extend_to_dimension,
    free_factor_sidedness,
    iota_star,
    is_simple_torus,
    main_construction_sidedness,
    sidedness_report,
    torus_inclusion_sidedness,
    torus_kernel_scan,
    z2xz_is_trivial,
)
from simpleloop.realize import Presentation
from simpleloop.words import from_letters

TORUS = Presentation(("a", "b"), (from_letters((1, 2, -1, -2)),))


def test_iota_star_examples():
    assert iota_star(TorusClass(2, 0)) == (0, 0)
    assert iota_star(TorusClass(1, 0)) == (1, 0)
    assert iota_star(TorusClass(0, 3)) == (0, 3)
    assert iota_star(TorusClass(-3, -7)) == (1, -7)


def test_iota_star_is_homomorphism():
    rng = random.Random(1)
    for _ in range(200):
        p1, q1, p2, q2 = (rng.randrange(-50, 51) for _ in range(4))
        lhs = iota_star(TorusClass(p1 + p2, q1 + q2))
        a = iota_star(TorusClass(p1, q1))
        b = iota_star(TorusClass(p2, q2))
        assert lhs == ((a[0] + b[0]) % 2, a[1] + b[1])


def test_is_simple_torus_examples():
    assert is_simple_torus(TorusClass(1, 0))
    assert not is_simple_torus(TorusClass(2, 0))
    assert is_simple_torus(TorusClass(3, 5))
    assert not is_simple_torus(TorusClass(4, 6))
    assert is_simple_torus(TorusClass(0, -1))
    with pytest.raises(ValueError):
        is_simple_torus(TorusClass(0, 0))


def test_kernel_scan_finds_exactly_even_horizontal_classes():
    scan = torus_kernel_scan(10)
    expected = {(2 * k, 0) for k in range(-5, 6) if k != 0}
    assert set(scan["kernel_classes"]) == expected
    assert scan["simple_in_kernel"] == []
    assert scan["non_geometric"]


def test_kernel_scan_reports_simple_kernel_classes(monkeypatch):
    # With every class sent to (0, 0), the primitive ones land in the kernel
    # and the scan must say the kernel is geometric.
    monkeypatch.setattr(demos, "iota_star", lambda c: (0, 0))
    scan = torus_kernel_scan(2)
    assert (1, 0) in scan["simple_in_kernel"] and (2, 1) in scan["simple_in_kernel"]
    assert (2, 0) not in scan["simple_in_kernel"]
    assert scan["non_geometric"] is False


def test_kernel_scan_bound100():
    assert torus_kernel_scan(100)["non_geometric"]


def test_kernel_scan_rejects_bad_bound():
    with pytest.raises(ValueError):
        torus_kernel_scan(0)


def test_character_values_validated():
    with pytest.raises(ValueError):
        OrientationCharacter((2,))


def test_character_on_word_handles_inverses():
    char = OrientationCharacter((1, 0))
    assert char.on_word(from_letters((1,))) == 1
    assert char.on_word(from_letters((-1,))) == 1
    assert char.on_word(from_letters((1, -1))) == 0
    assert char.on_word(from_letters((1, 2, 1))) == 0
    with pytest.raises(ValueError):
        char.on_word(from_letters((3,)))


def test_z2xz_word_problem():
    assert z2xz_is_trivial("")
    assert z2xz_is_trivial(from_letters((1, 1)))
    assert z2xz_is_trivial(from_letters((1, 2, -1, -2)))
    assert not z2xz_is_trivial(from_letters((2,)))
    assert not z2xz_is_trivial(from_letters((1,)))
    assert not z2xz_is_trivial(from_letters((2, 2, -2)))


def test_z2xz_rejects_unknown_generator():
    with pytest.raises(ValueError, match="unknown generator 3"):
        z2xz_is_trivial(from_letters((3,)))


def test_relator_image_with_odd_target_character_rejected():
    source = Presentation(("a",), (from_letters((1, 1, 1)),))
    source_char = OrientationCharacter((0,))
    target_char = OrientationCharacter((1,))
    with pytest.raises(ValueError, match="nonzero target character"):
        sidedness_report(source, source_char, target_char, {1: from_letters((1,))})


def test_torus_inclusion_is_one_sided():
    report = torus_inclusion_sidedness()
    assert report["two_sided"] is False
    assert report["generator_checks"]["a"] is False
    assert report["generator_checks"]["b"] is True
    assert report["notes"] == []


def test_main_construction_is_two_sided():
    report = main_construction_sidedness(2)
    assert report["two_sided"] is True
    assert report["notes"] == []


def test_main_construction_checks_the_relator_image_in_G(monkeypatch):
    monkeypatch.setattr(demos, "in_kernel", lambda ctx, w: False)
    with pytest.raises(ValueError, match="relator image is nontrivial"):
        main_construction_sidedness(2)


def test_main_construction_genus_bounds():
    # The cover build states the genus rule; demos does not check it again.
    with pytest.raises(ValueError, match="^genus must be at least 2$"):
        main_construction_sidedness(1)
    with pytest.raises(ResourceLimitError):
        main_construction_sidedness(5)


def test_free_factor_target_is_two_sided():
    report = free_factor_sidedness()
    assert report["two_sided"] is True


def test_two_sidedness_invariant_under_character_preserving_change():
    source_char = OrientationCharacter((0, 0))
    target_char = OrientationCharacter((1, 0))
    first = sidedness_report(
        TORUS,
        source_char,
        target_char,
        {1: from_letters((1,)), 2: from_letters((2,))},
        z2xz_is_trivial,
    )["two_sided"]
    second = sidedness_report(
        TORUS,
        source_char,
        target_char,
        {1: from_letters((1, 2)), 2: from_letters((2,))},
        z2xz_is_trivial,
    )["two_sided"]
    assert first == second == False


def test_ill_defined_source_character_rejected():
    source = Presentation(("a",), (from_letters((1, 1, 1)),))
    source_char = OrientationCharacter((1,))
    target_char = OrientationCharacter((1,))
    with pytest.raises(ValueError):
        images = {1: from_letters((1,))}
        sidedness_report(source, source_char, target_char, images)["two_sided"]


def test_ill_defined_homomorphism_rejected():
    source = Presentation(("a",), (from_letters((1, 1)),))
    source_char = OrientationCharacter((0,))
    target_char = OrientationCharacter((1, 0))
    with pytest.raises(ValueError):
        sidedness_report(
            source,
            source_char,
            target_char,
            {1: from_letters((2,))},
            z2xz_is_trivial,
        )["two_sided"]


def test_sidedness_report_notes_skipped_relator_check():
    source = Presentation(("a",), (from_letters((1, 1, -1, -1)),))
    source_char = OrientationCharacter((0,))
    target_char = OrientationCharacter((0,))
    images = {1: from_letters((1,))}
    report = sidedness_report(source, source_char, target_char, images, None)
    assert any("not checked" in note for note in report["notes"])


@pytest.mark.parametrize(
    "images",
    [
        {1: from_letters((1,))},
        {1: from_letters((1,)), 2: from_letters((2,)), 3: from_letters((1,))},
        {1: from_letters((1,)), 3: from_letters((2,))},
    ],
)
def test_sidedness_report_needs_one_image_per_source_generator(images):
    source_char = OrientationCharacter((0, 0))
    target_char = OrientationCharacter((1, 0))
    with pytest.raises(ValueError, match="each source generator"):
        sidedness_report(TORUS, source_char, target_char, images)


def test_extend_to_dimension():
    for n in (5, 6):
        record = extend_to_dimension(n)
        assert record["pi1_unchanged"]
        assert "warning" not in record
    record = extend_to_dimension(4)
    assert not record["pi1_unchanged"]
    assert "retract" in record["warning"] and "ker f_* is unchanged" in record["warning"]
    with pytest.raises(ValueError):
        extend_to_dimension(3)

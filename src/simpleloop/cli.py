"""Command-line interface for building, verifying, and reporting.

Commands: info, verify, search-kernel, lemma-check, torus-demo, realize.
Each command returns (exit code, records, text lines), and main writes the
records as JSON lines (schema field on every record) or the text, one line
at a time; records may be an iterator whose records are built as they are
written, and a record that is already its JSON line (a str) is written as
it is. Exit codes: 0 success, 1 verification failure (including no
kernel witness at the requested bound), 2 usage or configuration error,
3 resource bound. torus-demo and realize import the modules only they use
(demos, realize) when they run, so the other commands never load them.
"""

import argparse
import contextlib
import json
import os
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .cover import (
    MAX_GENUS,
    ResourceLimitError,
    build_mod2_cover,
    check_genus,
    cover_genus,
    group_order_log2,
)
from .curves import MAX_DEPTH, check_depth, generate_simple_classes, verify_non_geometric
from .quotient import (
    MAX_HALF_WORDS,
    check_search_budget,
    image_rank,
    longest_kernel_len,
    search_kernel_elements,
)
from .words import (
    check_length_bound,
    dehn_normal_form,
    is_proper_power,
    spell_words,
    word_to_str,
)

SCHEMA = 1
NO_WITNESS = "no witness found at this bound"
# One encoder for every record; json.dumps(sort_keys=True) builds a new one
# per call. The output bytes are the same.
_encode = json.JSONEncoder(sort_keys=True).encode
# A class record's JSON line as _encode writes it: the keys of
# curves._class_record plus kind and schema, in sorted order. Roots, twist
# names and word texts are spelled from [A-Za-z0-9_ ], so they need no
# escaping.
_CLASS_LINE = (
    '{"h_nonzero": %s, "in_kernel": %s, "kind": "class", "length": %d, '
    '"root": "%s", "schema": ' + str(SCHEMA) + ', "separating": %s, '
    '"twists": %s, "v_nonzero": %s, "word": "%s"}'
)
_BOOL = ("false", "true")


def _write(lines, out_path):
    """Write lines one at a time, to out_path (UTF-8) if given, else to stdout."""
    out = open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout)
    with out as handle:
        handle.writelines(line + "\n" for line in lines)


def _witness_record(genus, word):
    normal_form = dehn_normal_form(word, genus)
    return {
        "kind": "witness",
        "word": word_to_str(word),
        "length": len(word),
        "proper_power": is_proper_power(word),
        "dehn_normal_form": word_to_str(normal_form),
        "dehn_nontrivial": normal_form != "",
    }


def _witnesses_by_length(witnesses, max_len):
    return [sum(len(w) == k for w in witnesses) for k in range(1, max_len + 1)]


def _classes_by_depth(classes, depth):
    """Number of generated classes per twist depth, 0 to depth."""
    counts = [0] * (depth + 1)
    for sc in classes:
        counts[len(sc.twists)] += 1
    return counts


def _cover_stats_record(cover):
    return {
        "schema": SCHEMA,
        "kind": "cover",
        "genus": cover.genus,
        "degree": cover.n_vertices,
        "n_edges": cover.n_edges,
        "n_faces": cover.n_faces,
        "euler_characteristic": cover.n_vertices - cover.n_edges + cover.n_faces,
        "cover_genus": cover_genus(cover.genus),
        "h1_dim": cover.h1_dim,
        "group_order_log2": group_order_log2(cover.genus),
    }


def cmd_info(args):
    record = _cover_stats_record(build_mod2_cover(args.genus))
    return 0, [record], [
        "cover degree: %d" % record["degree"],
        "euler characteristic: %d" % record["euler_characteristic"],
        "cover genus: %d" % record["cover_genus"],
        "h1 dimension: %d" % record["h1_dim"],
        "group order: 2^%d" % record["group_order_log2"],
    ]


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB; None where the
    resource module is missing. ru_maxrss is in bytes on macOS, KiB elsewhere.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1024 * 1024 if sys.platform == "darwin" else 1024), 1)


def _timed(timing, key, fn, *args):
    """Call fn and record its wall time in seconds as timing[key]."""
    start = time.perf_counter()
    result = fn(*args)
    timing[key] = round(time.perf_counter() - start, 3)
    return result


def _sweep(args, timing, stage):
    """Refuse a genus or a depth over its budget, then build the cover,
    generate the certified classes and verify them once.

    The caller checks the usage bounds first, so a usage error wins over the
    depth budget. The verification pass is timed as timing[stage]. Returns
    the cover, the classes, their VerificationReport and the lemma
    record: verify nests it under "lemma", lemma-check spreads it into its
    summary.
    """
    check_genus(args.genus)
    check_depth(args.depth, args.genus)
    cover = _timed(timing, "build_s", build_mod2_cover, args.genus)
    classes = _timed(
        timing, "generate_s", generate_simple_classes, args.genus, args.depth, args.max_len
    )
    report = _timed(timing, stage, verify_non_geometric, cover, classes)
    lemma = {
        "separating_checked": report.n_separating,
        "nonseparating_checked": report.n_nonseparating,
        "lifts_per_class": cover.n_vertices,
        "failures": report.lemma_failures,
    }
    return cover, classes, report, lemma


def cmd_verify(args):
    check_depth(args.depth)
    check_length_bound(args.max_len, "max_len")
    check_search_budget(args.genus, args.kernel_len)
    timing = {}
    cover, classes, report, lemma = _sweep(args, timing, "verify_s")
    witnesses = _timed(timing, "search_s", search_kernel_elements, cover, args.kernel_len)
    rank = _timed(timing, "image_rank_s", image_rank, cover)

    # A contradiction of rho outranks an inconclusive search bound.
    if report.kernel_hits:
        status = "kernel_hit"
    elif lemma["failures"]:
        status = "lemma_failure"
    elif not witnesses:
        status = "no_witness_at_bound"
    else:
        status = "ok"

    summary = {
        "kind": "summary",
        "status": status,
        "config": {
            "genus": args.genus,
            "depth": args.depth,
            "max_len": args.max_len,
            "kernel_len": args.kernel_len,
            "seed": args.seed,
        },
        "cover": _cover_stats_record(cover),
        "classes_total": report.total,
        "classes_separating": report.n_separating,
        "classes_nonseparating": report.n_nonseparating,
        "classes_by_depth": _classes_by_depth(classes, args.depth),
        "kernel_hits": report.kernel_hits,
        "witness_count": len(witnesses),
        "witnesses_by_length": _witnesses_by_length(witnesses, args.kernel_len),
        "lemma": lemma,
        "image_rank": rank,
        "completeness_note": report.completeness_note,
        "timing": timing,
        "peak_rss_mb": _peak_rss_mb(),
    }

    def records():
        # The witness records and class lines are built as they are written.
        yield summary
        yield from (_witness_record(args.genus, w) for w in witnesses)
        texts = spell_words([sc.cls for sc in report.classes])
        for sc, flag, text in zip(report.classes, report.flags, texts):
            yield _CLASS_LINE % (
                _BOOL[flag >> 1],
                _BOOL[not flag],
                len(sc.cls),
                sc.root,
                _BOOL[sc.separating],
                '["%s"]' % '", "'.join(sc.twists) if sc.twists else "[]",
                _BOOL[flag & 1],
                text,
            )

    lines = [
        "status: %s" % status,
        "classes: %d (%d separating, %d nonseparating)"
        % (report.total, report.n_separating, report.n_nonseparating),
        "kernel hits among simple classes: %d" % len(report.kernel_hits),
        "kernel witnesses found: %d" % len(witnesses),
        "lemma check: %s (%d separating classes, %d lifts each)"
        % (
            "FAIL" if lemma["failures"] else "pass",
            lemma["separating_checked"],
            lemma["lifts_per_class"],
        ),
        "image rank: v %d/%d, h %d/%d"
        % (rank["v_rank"], rank["v_dim"], rank["h_rank"], rank["h_dim"]),
        "timing: %s" % _encode(timing),
    ]
    if status == "no_witness_at_bound":
        lines.append(NO_WITNESS)
    return (0 if status == "ok" else 1), records(), lines


def cmd_search_kernel(args):
    check_search_budget(args.genus, args.kernel_len)
    witnesses = search_kernel_elements(build_mod2_cover(args.genus), args.kernel_len)
    records = [
        {
            "kind": "summary",
            "status": "ok" if witnesses else "no_witness_at_bound",
            "genus": args.genus,
            "kernel_len": args.kernel_len,
            "witness_count": len(witnesses),
            "witnesses_by_length": _witnesses_by_length(witnesses, args.kernel_len),
        }
    ]
    records.extend(_witness_record(args.genus, w) for w in witnesses)
    lines = ["witnesses found: %d" % len(witnesses)]
    lines.extend(
        "%s (length %d%s)"
        % (rec["word"], rec["length"], ", proper power" if rec["proper_power"] else "")
        for rec in records[1:]
    )
    if not witnesses:
        lines.append(NO_WITNESS)
    return (0 if witnesses else 1), records, lines


def cmd_lemma_check(args):
    check_depth(args.depth)
    check_length_bound(args.max_len, "max_len")
    timing = {}
    _, classes, _, lemma = _sweep(args, timing, "lemma_s")
    failures = lemma["failures"]
    summary = {
        "kind": "summary",
        "status": "lemma_failure" if failures else "ok",
        "genus": args.genus,
        "depth": args.depth,
        "classes_by_depth": _classes_by_depth(classes, args.depth),
        **lemma,
        "timing": timing,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return (1 if failures else 0), [summary], [
        "separating classes checked: %d (%d lifts each)"
        % (lemma["separating_checked"], lemma["lifts_per_class"]),
        "nonseparating classes checked: %d" % lemma["nonseparating_checked"],
        "result: %s" % ("FAIL" if failures else "pass"),
        "timing: %s" % _encode(timing),
    ]


def cmd_torus_demo(args):
    from .demos import (
        extend_to_dimension,
        free_factor_sidedness,
        main_construction_sidedness,
        torus_inclusion_sidedness,
        torus_kernel_scan,
    )

    scan = torus_kernel_scan(100)
    reports = [
        torus_inclusion_sidedness(),
        main_construction_sidedness(args.genus),
        free_factor_sidedness(),
    ]
    expected = [False, True, True]
    ok = scan["non_geometric"] and [r["two_sided"] for r in reports] == expected
    records = [
        {
            "kind": "summary",
            "status": "ok" if ok else "demo_failure",
            "non_geometric_kernel": scan["non_geometric"],
            "scan_bound": scan["bound"],
            "kernel_class_count": len(scan["kernel_classes"]),
        }
    ]
    lines = [
        "non-geometric kernel: %s" % str(scan["non_geometric"]).lower(),
        "kernel classes up to bound %d: %d"
        % (scan["bound"], len(scan["kernel_classes"])),
    ]
    for rep in reports:
        records.append(
            {
                "kind": "sidedness",
                "name": rep["name"],
                "two_sided": rep["two_sided"],
                "notes": rep["notes"],
            }
        )
        lines.append(
            "%s: %s" % (rep["name"], "2-sided" if rep["two_sided"] else "1-sided")
        )
    for n in (4, 5):
        ext = extend_to_dimension(n)
        records.append(
            {
                "kind": "extension",
                "dimension": ext["dimension"],
                "pi1_unchanged": ext["pi1_unchanged"],
                "non_geometric_kernel": scan["non_geometric"],
                "warning": ext.get("warning"),
            }
        )
        note = " (%s)" % ext["warning"] if "warning" in ext else ""
        lines.append(
            "dimension %d: non-geometric kernel %s%s"
            % (ext["dimension"], str(scan["non_geometric"]).lower(), note)
        )
    return (0 if ok else 1), records, lines


def cmd_realize(args):
    from .realize import parse_presentation, recipe_for_G, recipe_for_presentation

    if args.presentation:
        with open(args.presentation, encoding="utf-8") as handle:
            pres = parse_presentation(handle.read())
        recipe = recipe_for_presentation(pres, args.dimension)
        group = recipe.resulting_group
        record = {
            "kind": "recipe",
            "dimension": recipe.dimension,
            "base": recipe.base,
            "steps": list(recipe.steps),
            "generators": list(group.generators),
            "relators": [group.word_str(r) for r in group.relators],
            "notes": list(recipe.notes),
        }
        lines = [
            "base: %s" % " # ".join(recipe.base["summands"]),
            "surgery steps: %d" % len(recipe.steps),
        ] + [
            "  step %d: surgery along %r" % (s["surgery"], s["relator"])
            for s in recipe.steps
        ]
    else:
        record = {
            "kind": "recipe_template",
            **recipe_for_G(args.genus, args.dimension),
        }
        lines = [
            "group order: 2^%d" % record["group_order_log2"],
            "dimension: %d" % record["dimension"],
            record["template"],
            record["two_sidedness_note"],
        ]
    return 0, [record], lines


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simpleloop",
        description=(
            "build the mod-2 homology cover of a surface, verify that the "
            "associated finite quotient has a kernel containing no certified "
            "simple closed curve, and emit construction recipes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--genus", type=int, default=2, help="surface genus (2..%d)" % MAX_GENUS
    )
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="JSON lines or plain text"
    )
    common.add_argument("--out", default=None, help="write report to this path")
    sweep = argparse.ArgumentParser(add_help=False)
    depth_budget = ", ".join("%d at genus %d" % (MAX_DEPTH[g], g) for g in range(2, MAX_GENUS + 1))
    sweep.add_argument(
        "--depth", type=int, default=6,
        help="twists applied to a standard curve, at most " + depth_budget,
    )
    sweep.add_argument(
        "--max-len", type=int, default=64, dest="max_len",
        help="longest class the twist BFS keeps; the 3g - 1 standard curves are kept at any length",
    )
    kernel = argparse.ArgumentParser(add_help=False)
    kernel_budget = ", ".join(
        "%d at genus %d" % (longest_kernel_len(g), g) for g in range(2, MAX_GENUS + 1)
    )
    kernel.add_argument(
        "--kernel-len", type=int, default=8, dest="kernel_len",
        help="longest kernel word searched, at most %s: its half-words, up to half its "
        "length, fill at most %d table entries" % (kernel_budget, MAX_HALF_WORDS),
    )

    def add_command(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    add_command("info", cmd_info, "cover statistics")
    p_verify = add_command(
        "verify", cmd_verify, "full verification sweep", sweep, kernel
    )
    p_verify.add_argument(
        "--seed",
        type=int,
        default=0,
        help="echoed in the summary's config; no stage is random",
    )
    add_command("search-kernel", cmd_search_kernel, "kernel witness search", kernel)
    add_command(
        "lemma-check", cmd_lemma_check, "lift checks on generated classes", sweep
    )
    add_command("torus-demo", cmd_torus_demo, "torus kernel scan and sidedness")
    p_realize = add_command(
        "realize", cmd_realize, "manifold recipe from a presentation"
    )
    p_realize.add_argument(
        "presentation",
        nargs="?",
        default=None,
        help="presentation file; omitted: template recipe for the quotient group",
    )
    p_realize.add_argument("--dimension", type=int, default=4, help="ambient dimension, at least 4")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, records, lines = args.func(args)
        if args.format == "json":
            lines = (
                rec if isinstance(rec, str) else _encode({"schema": SCHEMA, **rec})
                for rec in records
            )
        try:
            _write(lines, args.out)
        except BrokenPipeError:
            # The reader closed stdout early, which is not an error of the
            # run. Point stdout at the null device so that the interpreter's
            # final flush stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except ResourceLimitError as exc:
        sys.stderr.write("resource bound: %s\n" % exc)
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

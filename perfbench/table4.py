"""Parse and check the Table IV (MF-FRS) grid the table binary prints.

The checks are made apart from the program, on the printed numbers
only. `check` gates the table printed for the run's seed with what holds
on every seed; `check_defense` gates the paper's claim that "Ours"
lowers every attack's ER@10, on the NoDefense and Ours rows replayed at
DEFENSE_SEED; `claims` reports attack strengths that this reproduction
reaches on some seeds and misses on others (see README.md), so they are
printed but do not fail a run.
"""

DEFENSES = ["NoDefense", "NormBound", "Median", "TrimmedMean", "Krum",
            "MultiKrum", "Bulyan", "Ours"]
ATTACKS = ["A-HUM", "PIECK-IPE", "PIECK-UEA"]
# HR@10 of random ranking against 99 sampled negatives.
RANDOM_HR = 10.0
# A fixed seed for the defense check, so that its outcome does not vary
# with the run's seed. At this seed the Table IV binary shows "Ours"
# raising A-HUM's ER@10 from 41.24% to 100.00%: the check fails there
# on every run until the program's defense holds.
DEFENSE_SEED = 4


def parse(text):
    """Returns {(defense, attack): (er, hr)} in percent from the first
    markdown table in `text`; raises ValueError when it is malformed."""
    header = None
    cells = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("|"):
            if header is not None:
                break
            continue
        fields = [f.strip() for f in line.strip("|").split("|")]
        if header is None:
            header = fields
            if header[0] != "Defense":
                raise ValueError("table header does not start with Defense")
            continue
        if set(fields[0]) <= set("-"):
            continue
        if len(fields) != len(header):
            raise ValueError("row %r has %d fields, header %d"
                             % (fields[0], len(fields), len(header)))
        for attack in ATTACKS:
            try:
                er = float(fields[header.index(attack + " ER@10")])
                hr = float(fields[header.index(attack + " HR@10")])
            except ValueError as e:
                raise ValueError("row %r, %s: %s" % (fields[0], attack, e))
            cells[(fields[0], attack)] = (er, hr)
    if header is None:
        raise ValueError("no table found")
    return cells


def check(cells):
    """Gated checks: list of (name, ok). Every check holds on every seed
    of a correct program."""
    results = []
    for d in DEFENSES:
        for a in ATTACKS:
            cell = cells.get((d, a))
            ok = cell is not None and all(0.0 <= v <= 100.0 for v in cell)
            results.append(("%s/%s ER and HR in [0, 100]" % (d, a), ok))
    if not all(ok for _, ok in results):
        return results
    for a in ATTACKS:
        results.append(("NoDefense/%s HR@10 above random (%g%%)"
                        % (a, RANDOM_HR),
                        cells[("NoDefense", a)][1] > RANDOM_HR))
    results.append(("NoDefense/PIECK-UEA ER@10 >= 50%",
                    cells[("NoDefense", "PIECK-UEA")][0] >= 50.0))
    results.append(("Ours/PIECK-UEA ER@10 below NoDefense",
                    cells[("Ours", "PIECK-UEA")][0] <
                    cells[("NoDefense", "PIECK-UEA")][0]))
    return results


def check_defense(cells):
    """Gated: "Ours" ER@10 below NoDefense for every attack, one check
    per attack: list of (name, ok)."""
    results = []
    for a in ATTACKS:
        none, ours = cells.get(("NoDefense", a)), cells.get(("Ours", a))
        results.append(("Ours/%s ER@10 below NoDefense" % a,
                        none is not None and ours is not None and
                        ours[0] < none[0]))
    return results


def claims(cells):
    """Paper claims that are reported, not gated: list of (name, held)."""
    return [("NoDefense/%s ER@10 >= 50%%" % a,
             cells[("NoDefense", a)][0] >= 50.0)
            for a in ("A-HUM", "PIECK-IPE")]

"""Digest-consistent edits over every path of a written report.

:func:`report_edits` walks a report as ``experiment run`` writes it and
makes, at each path below its top level:

- the value changed to a string, to None and to a one-entry list holding it;
- the key dropped, where the parent is a dict;
- an unknown key added, where the value is a dict (and at the top level).

Lists are walked into their first two entries only, so the number of edits
does not grow with n or the trials. Each edited report carries the digest of its
edited content, unless the edit is to the digest itself, so that only the
checks of the content can see it. The echoed config is left alone: it is
the input the report is checked against, so an edit there states another
run rather than a fault in this one.
"""

from stabilab.lab import report_digest

UNKNOWN = "unknown-key"


def paths(value, path=()):
    """The path of every entry below ``value``: each key of a dict and the
    first two entries of a list, parents before their entries."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(min(2, len(value)))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from paths(value[key], path + (key,))


def _edited(value, path, edit):
    """A copy of ``value`` with ``edit(parent, key)`` applied at ``path``;
    only the containers along the path are copied."""
    head, *rest = path
    copy = dict(value) if isinstance(value, dict) else list(value)
    if rest:
        copy[head] = _edited(value[head], rest, edit)
    else:
        edit(copy, head)
    return copy


def _drop(parent, key):
    del parent[key]


def _add_key(parent, key):
    parent[key] = {**parent[key], UNKNOWN: 0}


def _to_string(parent, key):
    parent[key] = repr(parent[key])


def _to_none(parent, key):
    parent[key] = None


def _to_list(parent, key):
    parent[key] = [parent[key]]


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def report_edits(payload):
    """Yield ``(name, edited report)`` for each edit of ``payload``; the
    name is the edited path and the kind of edit."""
    edited = {**payload, UNKNOWN: 0}
    yield "report: add_key", {**edited, "digest": report_digest(edited)}
    for path in paths({key: value for key, value in payload.items() if key != "config"}):
        parent, value = _at(payload, path[:-1]), _at(payload, path)
        kinds = [_to_string, _to_list] + ([] if value is None else [_to_none])
        kinds += [_drop] if isinstance(parent, dict) else []
        kinds += [_add_key] if isinstance(value, dict) else []
        for kind in kinds:
            edited = _edited(payload, path, kind)
            if path != ("digest",):
                edited["digest"] = report_digest(edited)
            yield f"{' '.join(map(str, path))}: {kind.__name__[1:]}", edited

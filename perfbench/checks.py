"""Output checks: each reply on its own, served replies against a solo
reference server, and the server's own request and page counters."""


def reply_errors(reply, vocab):
    """Why ``reply`` is not a complete, well-formed generation ([] if it is)."""
    errs = []
    if reply.error:
        errs.append(reply.error)
    if reply.http_status != 200:
        errs.append(f"HTTP status {reply.http_status}")
    if reply.done is None:
        errs.append("no done event")
    elif reply.done.get("status") != "FINISHED":
        errs.append(f"status {reply.done.get('status')}")
    elif reply.done.get("tokens") != len(reply.tokens):
        errs.append(f"done counts {reply.done.get('tokens')} tokens, "
                    f"stream carried {len(reply.tokens)}")
    if len(reply.tokens) != reply.max_new_tokens:
        errs.append(f"{len(reply.tokens)} tokens, asked {reply.max_new_tokens}")
    if reply.indices != list(range(len(reply.indices))):
        errs.append("token indices are not 0..n-1")
    if any(not 0 <= t < vocab for t in reply.tokens):
        errs.append("token outside the vocabulary")
    return errs


def served_outputs(replies):
    """{prompt: tokens} of finished replies, and the prompts whose replies
    disagree with each other (the same prompt must give the same tokens)."""
    outputs, unstable = {}, set()
    for r in replies:
        key = (r.prompt, r.max_new_tokens)
        if key in outputs and outputs[key] != r.tokens:
            unstable.add(key)
        outputs.setdefault(key, r.tokens)
    return outputs, unstable


def reference_mismatches(served, reference):
    """Keys of ``reference`` whose tokens differ from the served ones."""
    return [key for key, tokens in reference.items() if served.get(key) != tokens]


def counter_errors(series, submitted, finished):
    """Conservation after the drain: the scheduler's request counters equal
    the client's own counts, and every KV page still in use is one the
    prefix cache holds."""
    errs = []
    got_sub = series.get("lserve_requests_submitted_total")
    got_fin = series.get("lserve_requests_finished_total")
    if got_sub != submitted:
        errs.append(f"lserve_requests_submitted_total={got_sub}, client sent {submitted}")
    if got_fin != finished:
        errs.append(f"lserve_requests_finished_total={got_fin}, client saw {finished}")
    in_use = series.get("lserve_kv_pages_in_use")
    held = series.get("lserve_prefix_cache_pages_held")
    if in_use is None or in_use != held:
        errs.append(f"lserve_kv_pages_in_use={in_use} but "
                    f"lserve_prefix_cache_pages_held={held}")
    return errs

/* Strict scanner of domain files, for confdeform.domain (built into one
 * library with the Dijkstra kernel and loaded through ctypes).
 *
 * It reads the bytes of a file of MetricDomain.save's layout, in any key
 * order and with any JSON whitespace, straight into the caller's arrays, and
 * declines everything else: the caller then reads the file with json.load,
 * whose errors, and from_dict's, stay the ones reported.  Integers of at most
 * 18 digits are built digit by digit.  Other numbers are checked against the
 * JSON grammar; a decimal of at most 15 significant digits and 22 fraction
 * digits, without an exponent, is one division of two exact doubles
 * (Clinger, 1990), and any other number goes to strtod, unless its bytes
 * are those of the number strtod read last, whose value it takes.  Both
 * round correctly, as Python's float does; an integer where a float belongs
 * converts as Python converts an int, so -0 reads +0.0.  Every value is
 * bitwise the one json.load gives.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* slots of the counts array */
enum { VERTICES, WITH_XY, EDGES, BOUNDARY, FRONTIER, META_AT, META_END };

typedef struct {
    const char *p, *end;
    int64_t room[5], n[5];  /* per array: capacity on entry, values read */
    int64_t *ids, *ends, *marks[2];
    double *xy, *lengths;
    char last[64];  /* the latest token strtod read, last_len bytes, and its value */
    size_t last_len;
    double last_value;
} scan;

/* Skip JSON whitespace; the next byte, or -1 at the end. */
static int ws(scan *s)
{
    while (s->p < s->end && (*s->p == ' ' || *s->p == '\n' || *s->p == '\r'
                             || *s->p == '\t'))
        s->p++;
    return s->p < s->end ? (unsigned char)*s->p : -1;
}

static int eat(scan *s, char c)
{
    if (ws(s) != c)
        return 0;
    s->p++;
    return 1;
}

static int digit(const scan *s, const char *p)
{
    return p < s->end && *p >= '0' && *p <= '9';
}

/* The JSON number starting here: its integer part, sign included, in *v;
 * 0 when it is an integer, 1 when a fraction or exponent follows, and -1
 * for no number or an integer part of more than 18 digits. */
static int number(scan *s, int64_t *v)
{
    int neg = ws(s) == '-', frac = 0;
    const char *p = s->p + neg, *first = p;
    int64_t acc = 0;
    for (; digit(s, p); p++) {
        if (p - first == 18)
            return -1;
        acc = 10 * acc + (*p - '0');
    }
    if (p == first || (*first == '0' && p - first > 1))
        return -1;
    *v = neg ? -acc : acc;
    if (p < s->end && *p == '.') {
        if (!digit(s, ++p))
            return -1;
        while (digit(s, p))
            p++;
        frac = 1;
    }
    if (p < s->end && (*p == 'e' || *p == 'E')) {
        p += p + 1 < s->end && (p[1] == '+' || p[1] == '-');
        if (!digit(s, ++p))
            return -1;
        while (digit(s, p))
            p++;
        frac = 1;
    }
    s->p = p;
    return frac;
}

static int integer(scan *s, int64_t *v)
{
    return number(s, v) == 0;
}

/* 10^k for k <= 22: the powers of ten a double holds exactly (5^22 < 2^53). */
static const double exact10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* The JSON number [-]digits.digits in [p, end) into *x when its
 * significant digits (from the first nonzero one) are at most 15 and its
 * fraction digits k at most 22: the digits m < 10^15 < 2^53 and 10^k are
 * exact doubles, so the one division m / 10^k rounds the token's exact
 * value correctly.  0 for any other number, one with an exponent included
 * (its 'e' is no digit). */
static int decimal(const char *p, const char *end, double *x)
{
    int neg = *p == '-';
    const char *q = p + neg, *dot, *sig;
    int64_t m = 0;
    for (dot = q; dot < end && *dot != '.'; dot++)
        ;
    if (dot == end || end - dot - 1 > 22)
        return 0;
    for (sig = q; sig < end && (*sig == '0' || *sig == '.'); sig++)
        ;
    if (end - sig - (sig < dot) > 15)
        return 0;
    for (; q < end; q++) {
        if (*q == '.')
            continue;
        if (*q < '0' || *q > '9')
            return 0;
        m = 10 * m + (*q - '0');
    }
    *x = (double)m / exact10[end - dot - 1];
    if (neg)
        *x = -*x;
    return 1;
}

/* A number into *x, unless x is NULL (no room left for it); tokens of 64
 * bytes or more are declined. */
static int real(scan *s, double *x)
{
    char *stop;
    int64_t v;
    int kind;
    const char *first;
    size_t len;
    ws(s);
    first = s->p;
    kind = number(s, &v);
    len = (size_t)(s->p - first);
    if (kind < 0 || len >= sizeof s->last)
        return 0;
    if (!x)
        return 1;
    if (kind == 0)
        *x = (double)v;
    else if (len == s->last_len && !memcmp(first, s->last, len))
        *x = s->last_value;  /* compared first: a repeat costs no parse */
    else if (!decimal(first, s->p, x)) {
        memcpy(s->last, first, len);
        s->last[len] = '\0';
        s->last_len = 0;
        *x = s->last_value = strtod(s->last, &stop);
        if (stop != s->last + len)
            return 0;
        s->last_len = len;
    }
    return 1;
}

/* The index in names (NULL-terminated) of the key starting here, its colon
 * eaten; -1 for any other key, escaped ones included. */
static int key(scan *s, const char *const *names)
{
    ws(s);
    for (int i = 0; names[i]; i++) {
        ptrdiff_t len = (ptrdiff_t)strlen(names[i]);
        if (s->end - s->p > len + 1 && s->p[0] == '"'
                && !memcmp(s->p + 1, names[i], len) && s->p[len + 1] == '"') {
            s->p += len + 2;
            return eat(s, ':') ? i : -1;
        }
    }
    return -1;
}

/* '[' item (',' item)* ']' or an empty list. */
static int list(scan *s, int (*item)(scan *, int), int arg)
{
    if (!eat(s, '['))
        return 0;
    if (eat(s, ']'))
        return 1;
    do
        if (!item(s, arg))
            return 0;
    while (eat(s, ','));
    return eat(s, ']');
}

static int mark(scan *s, int which)
{
    int64_t k = s->n[which]++, v;
    if (!integer(s, &v))
        return 0;
    if (k < s->room[which])
        s->marks[which - BOUNDARY][k] = v;
    return 1;
}

/* [u, v, length] */
static int edge(scan *s, int unused)
{
    int64_t k = s->n[EDGES]++, u, v;
    int fill = k < s->room[EDGES];
    (void)unused;
    if (!eat(s, '[') || !integer(s, &u) || !eat(s, ',') || !integer(s, &v)
            || !eat(s, ',') || !real(s, fill ? &s->lengths[k] : NULL)
            || !eat(s, ']'))
        return 0;
    if (fill)
        s->ends[2 * k] = u, s->ends[2 * k + 1] = v;
    return 1;
}

/* {"id": int, "xy": [number, number]}, "xy" optional, either order */
static int vertex(scan *s, int unused)
{
    static const char *const names[] = {"id", "xy", NULL};
    int64_t k = s->n[VERTICES]++, id;
    int seen = 0, i;
    (void)unused;
    if (!eat(s, '{'))
        return 0;
    do {
        if ((i = key(s, names)) < 0 || seen & 1 << i)
            return 0;
        seen |= 1 << i;
        if (i == 0) {
            if (!integer(s, &id))
                return 0;
            if (k < s->room[VERTICES])
                s->ids[k] = id;
        } else {
            int64_t j = s->n[WITH_XY]++;
            double *xy = j < s->room[WITH_XY] ? s->xy + 2 * j : NULL;
            if (!eat(s, '[') || !real(s, xy) || !eat(s, ',')
                    || !real(s, xy ? xy + 1 : NULL) || !eat(s, ']'))
                return 0;
        }
    } while (eat(s, ','));
    return seen & 1 && eat(s, '}');
}

/* Any value, by its brackets and strings alone: json.loads checks it. */
static int skip(scan *s)
{
    const char *p = s->p;
    int depth = 0;
    do {
        if (p >= s->end)
            return 0;
        switch (*p++) {
        case '"':
            while (p < s->end && *p != '"')
                p += *p == '\\' ? 2 : 1;
            if (p++ >= s->end)
                return 0;
            break;
        case '{': case '[':
            depth++;
            break;
        case '}': case ']':
            if (--depth < 0)
                return 0;
            break;
        default:  /* a scalar runs to the next delimiter */
            while (!depth && p < s->end && !memchr(",}] \t\n\r", *p, 7))
                p++;
        }
    } while (depth > 0);
    s->p = p;
    return 1;
}

/* Scan a domain file.  counts[] gives the room in each array (vertices, xy
 * pairs, edges, boundary, frontier) and returns the values found there,
 * with the byte span of "meta" in its last two slots (-1 when absent).
 * Values past an array's room are only counted: a count above the room
 * means that array holds its first values only, and zero room counts.
 * Returns 0, or -1 where it declines the bytes. */
int cd_scan(const char *buf, int64_t len, int64_t *counts, int64_t *ids,
            double *xy, int64_t *ends, double *lengths, int64_t *boundary,
            int64_t *frontier)
{
    static const char *const names[] = {"boundary", "edges", "frontier",
                                        "meta", "vertices", NULL};
    scan s = {buf, buf + len, {0}, {0}, ids, ends, {boundary, frontier},
              xy, lengths, {0}, 0, 0.0};
    int seen = 0, i, ok;
    memcpy(s.room, counts, sizeof s.room);
    counts[META_AT] = counts[META_END] = -1;
    if (!eat(&s, '{'))
        return -1;
    do {
        if ((i = key(&s, names)) < 0 || seen & 1 << i)
            return -1;
        seen |= 1 << i;
        switch (i) {
        case 0: ok = list(&s, mark, BOUNDARY); break;
        case 1: ok = list(&s, edge, 0); break;
        case 2: ok = list(&s, mark, FRONTIER); break;
        case 3:
            ws(&s);
            counts[META_AT] = s.p - buf;
            ok = skip(&s);
            counts[META_END] = s.p - buf;
            break;
        default: ok = list(&s, vertex, 0);
        }
        if (!ok)
            return -1;
    } while (eat(&s, ','));
    /* "boundary", "edges" and "vertices" are required */
    if (!eat(&s, '}') || ws(&s) >= 0 || (seen & 0x13) != 0x13)
        return -1;
    memcpy(counts, s.n, sizeof s.n);
    return 0;
}

// Compiled habit-table kernel: the extension module sopra._kernel._chabits.
//
// Bit-identical to `pyhabits.HabitStore`, written against the public
// CPython C API. The two kernels share the per-entry expressions, the
// order of entry creation and the order of updates within each entry;
// their layouts may differ, and `sums` is correctly rounded, so it needs
// no order either.
//
// `sums` is CPython's math.fsum with a fast path: views in [2^-40, 2),
// which bounded views mostly are, go exactly into one 128-bit integer
// count of 2^-92, and only the rest go through the partials loop. It
// keeps fsum's special values: an inf or nan view makes a total inf or
// nan, -inf with inf raises ValueError, and a finite sum out of range
// raises OverflowError.
//
// Every entry has a slot in the parallel columns `s`, `p` and `c`;
// `rows[activity][element]` maps the entry to it and `ka`/`ke` hold each
// slot's activity and element in creation order. The module must be
// compiled with -ffp-contract=off (no fused multiply-add), so both
// backends produce bit-identical doubles. setup.py builds it; README.md
// gives the g++ command for building it by hand.

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace {

typedef long long i64;

typedef std::unordered_map<i64, Py_ssize_t> Row;  // element -> slot

struct Table {
    std::unordered_map<i64, Row> rows;  // activity -> its row
    std::vector<i64> ka;  // slot -> activity, creation order
    std::vector<i64> ke;  // slot -> element
    std::vector<double> s;
    std::vector<double> p;
    std::vector<double> c;
    std::vector<Py_ssize_t> chain_data;
    std::vector<Py_ssize_t> chain_start;

    Py_ssize_t size() const { return (Py_ssize_t)ka.size(); }

    const Row *row(i64 a) const {
        auto it = rows.find(a);
        return it == rows.end() ? NULL : &it->second;
    }

    // The slot of (a, e), or -1 when there is no such entry.
    Py_ssize_t find(i64 a, i64 e) const {
        const Row *r = row(a);
        if (r == NULL) {
            return -1;
        }
        auto it = r->find(e);
        return it == r->end() ? -1 : it->second;
    }

    // Rows are node-based map values: a reference to one stays valid
    // while other rows are added.
    Py_ssize_t ensure(Row &r, i64 a, i64 e) {
        auto it = r.find(e);
        if (it != r.end()) {
            return it->second;
        }
        Py_ssize_t i = size();
        r[e] = i;
        ka.push_back(a);
        ke.push_back(e);
        s.push_back(0.0);
        p.push_back(0.0);
        c.push_back(0.0);
        return i;
    }

    Py_ssize_t ensure(i64 a, i64 e) { return ensure(rows[a], a, e); }

    // Strength of the nearest ancestor of `element` with a nonzero entry
    // in activity row `r`, discounted by attenuation per hierarchy step.
    double effective(const Row &r, Py_ssize_t element, double attenuation) const {
        double factor = 1.0;
        for (Py_ssize_t j = chain_start[element]; j < chain_start[element + 1]; j++) {
            auto it = r.find((i64)chain_data[j]);
            if (it != r.end()) {
                double v = s[it->second];
                if (v > 0.0) {
                    return factor * v;
                }
            }
            factor = factor * attenuation;
        }
        return 0.0;
    }
};

struct HabitStoreObject {
    PyObject_HEAD
    Table t;
};

// Argument conversion. Each returns false with a Python error set.

bool as_int(PyObject *o, i64 &out) {
    out = PyLong_AsLongLong(o);
    return !(out == -1 && PyErr_Occurred());
}

bool as_double(PyObject *o, double &out) {
    out = PyFloat_AsDouble(o);
    return !(out == -1.0 && PyErr_Occurred());
}

template <class T>
bool as_ints(PyObject *iterable, std::vector<T> &out) {
    PyObject *seq = PySequence_Fast(iterable, "expected an iterable of ints");
    if (seq == NULL) {
        return false;
    }
    bool ok = true;
    for (Py_ssize_t k = 0; ok && k < PySequence_Fast_GET_SIZE(seq); k++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, k);
        Py_INCREF(item);  // __index__ may run code that drops the list's reference
        i64 v;
        ok = as_int(item, v);
        Py_DECREF(item);
        if (ok) {
            out.push_back((T)v);
        }
    }
    Py_DECREF(seq);
    return ok;
}

// Methods. Each receives its positional arguments, already counted.

PyObject *set_views(Table &t, PyObject *const *args) {
    i64 a, e;
    double strength, personal, collective;
    if (!as_int(args[0], a) || !as_int(args[1], e) || !as_double(args[2], strength)
        || !as_double(args[3], personal) || !as_double(args[4], collective)) {
        return NULL;
    }
    Py_ssize_t i = t.ensure(a, e);
    t.s[i] = strength;
    t.p[i] = personal;
    t.c[i] = collective;
    Py_RETURN_NONE;
}

PyObject *get_views(Table &t, PyObject *const *args) {
    i64 a, e;
    if (!as_int(args[0], a) || !as_int(args[1], e)) {
        return NULL;
    }
    Py_ssize_t i = t.find(a, e);
    if (i < 0) {
        return Py_BuildValue("(ddd)", 0.0, 0.0, 0.0);
    }
    return Py_BuildValue("(ddd)", t.s[i], t.p[i], t.c[i]);
}

PyObject *pressures(Table &t, PyObject *const *args) {
    std::vector<i64> acts;
    std::vector<Py_ssize_t> ctx;
    double attenuation;
    if (!as_ints(args[0], acts) || !as_ints(args[1], ctx) || !as_double(args[2], attenuation)) {
        return NULL;
    }
    long aggregation = PyLong_AsLong(args[3]);
    if (aggregation == -1 && PyErr_Occurred()) {
        return NULL;
    }
    // The chain walk indexes chain_start[e + 1]: refuse what the Python
    // store's slice would refuse rather than read past the end.
    Py_ssize_t n_elements = t.chain_start.empty() ? 0 : (Py_ssize_t)t.chain_start.size() - 1;
    for (Py_ssize_t e : ctx) {
        if (e < 0 || e >= n_elements) {
            PyErr_Format(PyExc_IndexError, "context element %zd out of range for %zd elements",
                         e, n_elements);
            return NULL;
        }
    }
    Py_ssize_t n = (Py_ssize_t)ctx.size();
    if (aggregation == 0 && n == 0 && !acts.empty()) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return NULL;
    }
    PyObject *out = PyList_New((Py_ssize_t)acts.size());
    if (out == NULL) {
        return NULL;
    }
    for (size_t k = 0; k < acts.size(); k++) {
        const Row *r = t.row(acts[k]);
        double acc = 0.0;
        if (r != NULL) {
            for (Py_ssize_t j = 0; j < n; j++) {
                double v = t.effective(*r, ctx[j], attenuation);
                if (aggregation == 1) {  // max
                    if (v > acc) {
                        acc = v;
                    }
                } else {
                    acc = acc + v;
                }
            }
        }
        if (aggregation == 0) {  // mean
            acc = acc / n;
        }
        PyObject *v = PyFloat_FromDouble(acc);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, (Py_ssize_t)k, v);
    }
    return out;
}

PyObject *habit_tick(Table &t, PyObject *const *args) {
    // One-step update from tick-start values. Reinforced pairs get
    // h + r(1-h), or (1-d)h + r(1-h) when decay applies to all;
    // every other pair gets (1-d)h.
    i64 performed;
    std::vector<i64> ctx;
    double rate, decay_rate;
    if (!as_int(args[0], performed) || !as_ints(args[1], ctx) || !as_double(args[2], rate)
        || !as_double(args[3], decay_rate)) {
        return NULL;
    }
    int decay_all = PyObject_IsTrue(args[4]);
    if (decay_all < 0) {
        return NULL;
    }
    std::unordered_set<i64> member;
    for (i64 e : ctx) {
        t.ensure(performed, e);
        member.insert(e);
    }
    for (Py_ssize_t i = 0; i < t.size(); i++) {
        double s = t.s[i];
        if (t.ka[i] == performed && member.count(t.ke[i]) > 0) {
            if (decay_all) {
                t.s[i] = (1.0 - decay_rate) * s + rate * (1.0 - s);
            } else {
                t.s[i] = s + rate * (1.0 - s);
            }
        } else {
            t.s[i] = (1.0 - decay_rate) * s;
        }
    }
    Py_RETURN_NONE;
}

PyObject *track_personal(Table &t, PyObject *const *args) {
    double awareness;
    if (!as_double(args[0], awareness)) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < t.size(); i++) {
        double p = t.p[i];
        t.p[i] = p + awareness * (t.s[i] - p);
    }
    Py_RETURN_NONE;
}

PyObject *observe(Table &t, PyObject *const *args) {
    // The acted entry is strengthened before the competing ones are
    // weakened, element by element; competing entries are never created.
    i64 acted;
    std::vector<i64> comp, ctx;
    double rate;
    if (!as_int(args[0], acted) || !as_ints(args[1], comp) || !as_ints(args[2], ctx)
        || !as_double(args[3], rate)) {
        return NULL;
    }
    Row &row = t.rows[acted];
    // Taken after the acted row exists: an acted activity listed among
    // the competing ones is weakened right after its own update.
    std::vector<const Row *> others;
    for (i64 a : comp) {
        const Row *r = t.row(a);
        if (r != NULL) {
            others.push_back(r);
        }
    }
    for (i64 e : ctx) {
        Py_ssize_t i = t.ensure(row, acted, e);
        double c = t.c[i];
        t.c[i] = c + rate * (1.0 - c);
        for (const Row *r : others) {
            auto it = r->find(e);
            if (it != r->end()) {
                Py_ssize_t j = it->second;
                t.c[j] = (1.0 - rate) * t.c[j];
            }
        }
    }
    Py_RETURN_NONE;
}

// CPython's math.fsum over `values` in their order: Shewchuk's partials,
// then half-even rounding across them, with fsum's special values. An
// inf or nan term makes the result the plain sum of those terms, or
// raises ValueError for -inf + inf; a finite term that takes a partial
// sum out of range raises OverflowError. Returns false with that error
// set.
//
// Fast path: a view in [2^-40, 2) is a whole number of units of 2^-92
// below 2^93, so it is added exactly into the 128-bit count `units`
// (room for 2^35 such terms). Zeros are skipped: they leave every
// partial sum as it was. Only the other terms go through the partials
// loop, and then the count, as three pieces of 53 bits or fewer, each
// a double exactly. The sum is the same correctly rounded one.
bool fsum(const std::vector<double> &values, double &out) {
    std::vector<double> partials;
    double special_sum = 0.0, inf_sum = 0.0;
    auto add = [&](double x) {
        double xsave = x;
        size_t i = 0;
        for (double y : partials) {  // rewritten in place, as in CPython
            if (std::fabs(x) < std::fabs(y)) {
                std::swap(x, y);
            }
            double hi = x + y;
            double lo = y - (hi - x);
            if (lo != 0.0) {
                partials[i++] = lo;
            }
            x = hi;
        }
        partials.resize(i);
        if (x == 0.0) {  // a zero partial would make [-0.0] sum to -0.0
            return true;
        }
        if (!std::isfinite(x)) {
            if (std::isfinite(xsave)) {
                PyErr_SetString(PyExc_OverflowError, "intermediate overflow in fsum");
                return false;
            }
            if (std::isinf(xsave)) {
                inf_sum += xsave;
            }
            special_sum += xsave;
            partials.clear();
        } else {
            partials.push_back(x);
        }
        return true;
    };
    unsigned __int128 units = 0;
    for (double x : values) {
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        // Sign and biased exponent; 983 to 1023 is [2^-40, 2).
        uint64_t exponent = bits >> 52;
        if (exponent - 983 <= 40) {
            unsigned __int128 mantissa = (bits & ((uint64_t(1) << 52) - 1)) | (uint64_t(1) << 52);
            units += mantissa << (exponent - 983);
        } else if (x != 0.0 && !add(x)) {
            return false;
        }
    }
    const uint64_t piece = (uint64_t(1) << 53) - 1;
    for (int shift : {0, 53, 106}) {
        uint64_t bits = uint64_t(units >> shift) & piece;
        if (bits != 0 && !add(std::ldexp(double(bits), shift - 92))) {
            return false;
        }
    }
    if (special_sum != 0.0) {
        if (std::isnan(inf_sum)) {
            PyErr_SetString(PyExc_ValueError, "-inf + inf in fsum");
            return false;
        }
        out = special_sum;
        return true;
    }
    size_t n = partials.size();
    double hi = n > 0 ? partials[--n] : 0.0, lo = 0.0;
    while (n > 0) {  // add from the top while the sum stays exact
        double x = hi, y = partials[--n];
        hi = x + y;
        lo = y - (hi - x);
        if (lo != 0.0) {
            break;
        }
    }
    // Half-even across partials: the sign of the ones below breaks a tie.
    if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0))) {
        double y = lo * 2.0, x = hi + y;
        if (y == x - hi) {
            hi = x;
        }
    }
    out = hi;
    return true;
}

PyObject *sums(Table &t, PyObject *const *) {
    double s, p, c;
    if (!fsum(t.s, s) || !fsum(t.p, p) || !fsum(t.c, c)) {
        return NULL;
    }
    return Py_BuildValue("(nddd)", t.size(), s, p, c);
}

PyObject *items(Table &t, PyObject *const *) {
    PyObject *out = PyList_New(t.size());
    if (out == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < t.size(); i++) {
        PyObject *row = Py_BuildValue("(LLddd)", t.ka[i], t.ke[i], t.s[i], t.p[i], t.c[i]);
        if (row == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, row);
    }
    return out;
}

// Type slots and method table.

typedef PyObject *(*Method)(Table &, PyObject *const *);

// Checks the argument count and turns a failed C++ allocation into
// MemoryError instead of letting it unwind through the interpreter.
template <Method M, Py_ssize_t N>
PyObject *call(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != N) {
        PyErr_Format(PyExc_TypeError, "HabitStore method takes %zd positional arguments (%zd given)",
                     N, nargs);
        return NULL;
    }
    try {
        return M(((HabitStoreObject *)self)->t, args);
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
}

#define METHOD(name, n, sig, doc) \
    {#name, (PyCFunction)(void (*)(void))call<name, n>, METH_FASTCALL, \
     #name "($self" sig ", /)\n--\n\n" doc}

PyMethodDef store_methods[] = {
    METHOD(set_views, 5, ", activity, element, strength, personal, collective",
           "Create or overwrite an entry's three values."),
    METHOD(get_views, 2, ", activity, element",
           "(strength, personal, collective); zeros for an absent entry."),
    METHOD(pressures, 4, ", activities, ctx_elements, attenuation, aggregation",
           "Aggregated effective strength of each activity over the context."),
    METHOD(habit_tick, 5, ", performed, ctx_elements, rate, decay_rate, decay_all",
           "Reinforce and decay in one step from tick-start values."),
    METHOD(track_personal, 1, ", awareness", "Move each personal view toward its strength."),
    METHOD(observe, 4, ", acted, competing, ctx_elements, rate",
           "Strengthen the acted collective views, weaken existing competing ones.\n\n"
           "ctx_elements must hold no duplicates (ContextSnapshot.ids guarantees it):\n"
           "with one, and the acted activity among the competing ones, this\n"
           "element-by-element order and pyhabits' two-pass order differ."),
    METHOD(sums, 0, "", "(entries, sum of strengths, personal views, collective views)."),
    METHOD(items, 0, "", "[(activity, element, strength, personal, collective)] in creation order."),
    {NULL, NULL, 0, NULL},
};

#undef METHOD

PyObject *store_new(PyTypeObject *type, PyObject *, PyObject *) {
    PyObject *self = type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    new (&((HabitStoreObject *)self)->t) Table();  // empty containers allocate nothing
    return self;
}

int store_init(PyObject *self, PyObject *args, PyObject *kwds) {
    static const char *kwlist[] = {"chain_data", "chain_start", NULL};
    PyObject *data_arg, *start_arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO:HabitStore", (char **)kwlist,
                                     &data_arg, &start_arg)) {
        return -1;
    }
    Table &t = ((HabitStoreObject *)self)->t;
    try {
        std::vector<Py_ssize_t> data, start;
        if (!as_ints(data_arg, data) || !as_ints(start_arg, start)) {
            return -1;
        }
        // The chain walk reads chain_data[chain_start[e]:chain_start[e + 1]].
        for (size_t k = 0; k < start.size(); k++) {
            if (start[k] < 0 || start[k] > (Py_ssize_t)data.size()
                || (k > 0 && start[k] < start[k - 1])) {
                PyErr_SetString(PyExc_ValueError,
                                "chain_start must be nondecreasing offsets into chain_data");
                return -1;
            }
        }
        t.chain_data.swap(data);
        t.chain_start.swap(start);
    } catch (const std::bad_alloc &) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

void store_dealloc(PyObject *self) {
    ((HabitStoreObject *)self)->t.~Table();
    Py_TYPE(self)->tp_free(self);
}

Py_ssize_t store_len(PyObject *self) {
    return ((HabitStoreObject *)self)->t.size();
}

PySequenceMethods store_as_sequence;

PyTypeObject HabitStoreType = {PyVarObject_HEAD_INIT(NULL, 0)};

PyModuleDef chabits_module = {PyModuleDef_HEAD_INIT};

}  // namespace

PyMODINIT_FUNC PyInit__chabits(void) {
    store_as_sequence.sq_length = store_len;

    HabitStoreType.tp_name = "sopra._kernel._chabits.HabitStore";
    HabitStoreType.tp_doc = PyDoc_STR(
        "HabitStore(chain_data, chain_start)\n--\n\n"
        "One agent's sparse (activity, element) -> (strength, personal view,\n"
        "collective view) table; bit-identical to pyhabits.HabitStore.");
    HabitStoreType.tp_basicsize = sizeof(HabitStoreObject);
    HabitStoreType.tp_flags = Py_TPFLAGS_DEFAULT;
    HabitStoreType.tp_new = store_new;
    HabitStoreType.tp_init = store_init;
    HabitStoreType.tp_dealloc = store_dealloc;
    HabitStoreType.tp_as_sequence = &store_as_sequence;
    HabitStoreType.tp_methods = store_methods;
    if (PyType_Ready(&HabitStoreType) < 0) {
        return NULL;
    }
    // A class attribute, as on the Python store: get_backend() returns the type.
    PyObject *name = PyUnicode_FromString("compiled");
    if (name == NULL) {
        return NULL;
    }
    int failed = PyDict_SetItemString(HabitStoreType.tp_dict, "backend", name);
    Py_DECREF(name);
    if (failed) {
        return NULL;
    }
    PyType_Modified(&HabitStoreType);

    chabits_module.m_name = "sopra._kernel._chabits";
    chabits_module.m_doc = "Compiled habit-table kernel; see pyhabits.py.";
    chabits_module.m_size = -1;
    PyObject *m = PyModule_Create(&chabits_module);
    if (m == NULL) {
        return NULL;
    }
    if (PyModule_AddObjectRef(m, "HabitStore", (PyObject *)&HabitStoreType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}

/* Allocation-free GC sampling for span profiling.  Writes the calling
   domain's cumulative counters into five consecutive slots of a float
   array, so a profiled span measures its body's allocation without
   adding any of its own: minor words (including the live young
   generation, like [Gc.minor_words]), major words, promoted words, and
   the minor and major collection counts (the same values
   [Gc.quick_stat] reports for a single domain). */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/domain_state.h>
#include <caml/minor_gc.h>
#include <caml/major_gc.h>

CAMLprim value hls_obs_gc_sample_into(value buf, value off)
{
  caml_domain_state *d = Caml_state;
  intnat o = Long_val(off);
  double young =
    (double)((uintnat)d->young_end - (uintnat)d->young_ptr) / sizeof(value);
  Store_double_flat_field(buf, o, (double)d->stat_minor_words + young);
  Store_double_flat_field(buf, o + 1, (double)d->stat_major_words);
  Store_double_flat_field(buf, o + 2, (double)d->stat_promoted_words);
  Store_double_flat_field(buf, o + 3,
                          (double)atomic_load(&caml_minor_collections_count));
  Store_double_flat_field(buf, o + 4, (double)caml_major_cycles_completed);
  return Val_unit;
}

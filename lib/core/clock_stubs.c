/* Monotonic clock for the enumeration loop's timers and budgets.

   Sys.time goes through the times() syscall (~250 ns per sample), which
   is the same order of magnitude as the cheap cascade stages it would
   measure.  CLOCK_MONOTONIC is served from the vDSO without entering the
   kernel, so a sample costs ~20 ns and the timers measure the work
   instead of the clock. */

#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

CAMLprim double duo_clock_mono(value unit)
{
  struct timespec ts;
  (void) unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double) ts.tv_sec + (double) ts.tv_nsec * 1e-9;
}

CAMLprim value duo_clock_mono_byte(value unit)
{
  return caml_copy_double(duo_clock_mono(unit));
}

/* Process probes OCaml's Unix library lacks: a child's peak RSS,
   collected when it is reaped, and CPU affinity. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Reap child [pid] (blocking unless [nohang]); returns (exit code, or
   -signal, and the child's ru_maxrss in KiB), or (-1000, 0) when
   [nohang] and the child is still running. */
value perfbench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  struct rusage ru;
  int status = 0;
  int flags = Bool_val(vnohang) ? WNOHANG : 0;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4((pid_t)Long_val(vpid), &status, flags, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  if (r == 0) {
    Store_field(res, 0, Val_int(-1000));
    Store_field(res, 1, Val_long(0));
  } else {
    Store_field(res, 0,
                Val_int(WIFEXITED(status)     ? WEXITSTATUS(status)
                        : WIFSIGNALED(status) ? -WTERMSIG(status)
                                              : -255));
    Store_field(res, 1, Val_long(ru.ru_maxrss));
  }
  CAMLreturn(res);
}

/* The CPUs this thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int i, n = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) caml_failwith("sched_getaffinity");
  res = caml_alloc_tuple(CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1);
  Store_field(res, 0, Val_int(-1));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, n++, Val_int(i));
  CAMLreturn(res);
}

/* Pin the calling thread (and the children it forks later) to [cpu]. */
value perfbench_pin(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) caml_failwith("sched_setaffinity");
  return Val_unit;
}

(* Seconds on a monotonic nanosecond clock (mono_stubs.c). *)
external now : unit -> (float[@unboxed]) = "perfbench_now_byte" "perfbench_now"
[@@noalloc]

external mono : unit -> (float[@unboxed])
  = "duo_clock_mono_byte" "duo_clock_mono"
[@@noalloc]

type mark = { mutable at : float }

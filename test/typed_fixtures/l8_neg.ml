(* L8 negative: shared state is behind Pool.Memo; the other task touches
   only its own arguments. *)
let memo : (int, unit) Disco_util.Pool.Memo.t =
  Disco_util.Pool.Memo.create 64 ~empty:(-1) ~scratch:ignore

let squares pool xs =
  Disco_util.Pool.run pool xs (fun x ->
      Disco_util.Pool.Memo.find_or_add memo x (fun () -> x * x))

let sums pool xs = Disco_util.Pool.run pool xs (fun x -> x + 1)

let is_sorted cmp a =
  let n = Array.length a in
  let rec go i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && go (i + 1)) in
  go 1

let lower_bound cmp a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if cmp a.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound cmp a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if cmp a.(mid) x <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let count_in_range cmp a lo hi =
  if cmp lo hi > 0 then 0 else upper_bound cmp a hi - lower_bound cmp a lo

let[@inline always] float_lower_bound (a : float array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline always] float_upper_bound (a : float array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let int_lower_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let int_upper_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo
